/**
 * @file
 * On-disk artifact cache for expensive derived objects (trained model
 * weights, baseline evaluation results). Keyed by a user-provided name;
 * lives under $LRD_CACHE_DIR or <tmp>/lrd-cache by default.
 */

#ifndef LRD_UTIL_CACHE_H
#define LRD_UTIL_CACHE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lrd {

/** Directory used for cached artifacts; created on first use. */
std::string cacheDir();

/** Full path for a named cache entry. */
std::string cachePath(const std::string &name);

/** Whether a named cache entry exists. */
bool cacheHas(const std::string &name);

/** Write a raw byte blob to a named entry (atomic via rename). */
void cacheWrite(const std::string &name, const std::vector<uint8_t> &bytes);

/** Read a named entry; NotFound status when missing or unreadable. */
Result<std::vector<uint8_t>> cacheRead(const std::string &name);

/**
 * Binary serialization helpers used by weight (de)serialization.
 * All values are little-endian; this library only targets one host.
 */
class ByteWriter
{
  public:
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putF64(double v);
    void putString(const std::string &s);
    void putFloats(const std::vector<float> &v);
    void putBytes(const std::vector<uint8_t> &v);
    /** Size the buffer for `n` bytes up front. */
    void reserve(size_t n) { buf_.reserve(n); }
    const std::vector<uint8_t> &bytes() const & { return buf_; }
    /** Hand the buffer over: `std::move(w).bytes()` copies nothing. */
    std::vector<uint8_t> bytes() && { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/** Cursor-based reader matching ByteWriter's format. */
class ByteReader
{
  public:
    explicit ByteReader(std::vector<uint8_t> bytes);
    uint32_t getU32();
    uint64_t getU64();
    double getF64();
    std::string getString();
    std::vector<float> getFloats();
    std::vector<uint8_t> getBytes();
    /** Bytes not yet read. */
    size_t remaining() const { return buf_.size() - pos_; }

  private:
    void need(size_t n) const;
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
};

} // namespace lrd

#endif // LRD_UTIL_CACHE_H
