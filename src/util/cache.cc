#include "cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "logging.h"

namespace fs = std::filesystem;

namespace lrd {

std::string
cacheDir()
{
    static std::string dir = [] {
        const char *env = std::getenv("LRD_CACHE_DIR");
        fs::path p = env != nullptr
                         ? fs::path(env)
                         : fs::temp_directory_path() / "lrd-cache";
        std::error_code ec;
        fs::create_directories(p, ec);
        if (ec)
            warn("cacheDir: cannot create " + p.string() + ": "
                 + ec.message());
        return p.string();
    }();
    return dir;
}

std::string
cachePath(const std::string &name)
{
    return (fs::path(cacheDir()) / name).string();
}

bool
cacheHas(const std::string &name)
{
    return fs::exists(cachePath(name));
}

void
cacheWrite(const std::string &name, const std::vector<uint8_t> &bytes)
{
    const std::string path = cachePath(name);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream ofs(tmp, std::ios::binary);
        require(static_cast<bool>(ofs), "cacheWrite: cannot open ", tmp);
        ofs.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        require(static_cast<bool>(ofs), "cacheWrite: short write to ", tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fatal("cacheWrite: rename failed: " + ec.message());
}

Result<std::vector<uint8_t>>
cacheRead(const std::string &name)
{
    const std::string path = cachePath(name);
    std::ifstream ifs(path, std::ios::binary | std::ios::ate);
    if (!ifs)
        return Status(StatusCode::NotFound, "cache.read",
                      "missing entry " + path);
    const auto size = static_cast<size_t>(ifs.tellg());
    ifs.seekg(0);
    std::vector<uint8_t> bytes(size);
    ifs.read(reinterpret_cast<char *>(bytes.data()),
             static_cast<std::streamsize>(size));
    if (!ifs)
        return Status(StatusCode::DataLoss, "cache.read",
                      "short read from " + path);
    return bytes;
}

void
ByteWriter::putU32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::putU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::putF64(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
ByteWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
ByteWriter::putFloats(const std::vector<float> &v)
{
    putU64(v.size());
    const size_t off = buf_.size();
    buf_.resize(off + v.size() * sizeof(float));
    std::memcpy(buf_.data() + off, v.data(), v.size() * sizeof(float));
}

void
ByteWriter::putBytes(const std::vector<uint8_t> &v)
{
    putU64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

ByteReader::ByteReader(std::vector<uint8_t> bytes) : buf_(std::move(bytes)) {}

void
ByteReader::need(size_t n) const
{
    if (n > remaining())
        fatal("ByteReader: truncated stream");
}

uint32_t
ByteReader::getU32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
ByteReader::getU64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

double
ByteReader::getF64()
{
    uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
ByteReader::getString()
{
    const uint64_t n = getU64();
    need(n);
    std::string s(reinterpret_cast<const char *>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
}

std::vector<float>
ByteReader::getFloats()
{
    const uint64_t n = getU64();
    if (n > remaining() / sizeof(float))
        fatal("ByteReader: truncated stream");
    std::vector<float> v(n);
    std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return v;
}

std::vector<uint8_t>
ByteReader::getBytes()
{
    const uint64_t n = getU64();
    need(n);
    std::vector<uint8_t> v(buf_.begin() + static_cast<long>(pos_),
                           buf_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return v;
}

} // namespace lrd
