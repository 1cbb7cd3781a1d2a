#include "table.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "logging.h"

namespace lrd {

TablePrinter::TablePrinter(std::string title) : title_(std::move(title)) {}

void
TablePrinter::setHeader(const std::vector<std::string> &header)
{
    header_ = header;
}

void
TablePrinter::addRow(const std::vector<std::string> &row)
{
    require(header_.empty() || row.size() == header_.size(),
            "TablePrinter: row width ", row.size(), " != header width ",
            header_.size());
    rows_.push_back(row);
}

std::string
TablePrinter::toMarkdown() const
{
    std::vector<size_t> widths(header_.size(), 0);
    auto grow = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    std::ostringstream oss;
    oss << "### " << title_ << "\n";
    auto emit = [&](const std::vector<std::string> &row) {
        oss << "|";
        for (size_t i = 0; i < row.size(); ++i)
            oss << " " << std::left << std::setw(static_cast<int>(widths[i]))
                << row[i] << " |";
        oss << "\n";
    };
    emit(header_);
    oss << "|";
    for (size_t w : widths)
        oss << std::string(w + 2, '-') << "|";
    oss << "\n";
    for (const auto &r : rows_)
        emit(r);
    return oss.str();
}

std::string
TablePrinter::toCsv() const
{
    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << ",";
            // Quote cells containing separators.
            if (row[i].find_first_of(",\"\n") != std::string::npos) {
                oss << '"';
                for (char c : row[i]) {
                    if (c == '"')
                        oss << '"';
                    oss << c;
                }
                oss << '"';
            } else {
                oss << row[i];
            }
        }
        oss << "\n";
    };
    emit(header_);
    for (const auto &r : rows_)
        emit(r);
    return oss.str();
}

void
TablePrinter::print() const
{
    std::cout << toMarkdown() << std::endl;
}

void
TablePrinter::writeCsv(const std::string &path) const
{
    std::ofstream ofs(path);
    if (!ofs) {
        warn("TablePrinter: cannot write " + path);
        return;
    }
    ofs << toCsv();
}

std::string
TablePrinter::num(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

} // namespace lrd
