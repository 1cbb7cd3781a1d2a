#include "annotations.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace lrd::lint {

Annotations
parseAnnotations(const std::vector<Comment> &comments)
{
    Annotations ann;
    for (const Comment &com : comments) {
        const size_t tag = com.text.find("lrd-lint:");
        if (tag == std::string::npos)
            continue;
        size_t pos = tag + 9;
        while (pos < com.text.size()
               && std::isspace(static_cast<unsigned char>(com.text[pos])))
            ++pos;
        const size_t open = com.text.find('(', pos);
        if (open == std::string::npos)
            continue;
        const std::string verb = com.text.substr(pos, open - pos);
        const size_t close = com.text.find(')', open);
        if (close == std::string::npos || verb != "allow")
            continue;
        std::istringstream iss(com.text.substr(open + 1, close - open - 1));
        std::string rule;
        while (std::getline(iss, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (!rule.empty())
                ann.allows[com.line].insert(rule);
        }
    }
    return ann;
}

bool
isSuppressed(const Annotations &ann, int line, const std::string &rule)
{
    for (int l : {line, line - 1}) {
        const auto it = ann.allows.find(l);
        if (it != ann.allows.end() && it->second.count(rule))
            return true;
    }
    return false;
}

} // namespace lrd::lint
