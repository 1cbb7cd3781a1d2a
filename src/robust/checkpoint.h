/**
 * @file
 * Versioned, CRC-protected checkpoints for resumable long-running
 * pipelines (trainer, DSE sweep).
 *
 * On-disk format (all little-endian):
 *
 *   bytes 0..7   magic "LRDCKPT1"
 *   bytes 8..11  u32 user version (pipeline-specific)
 *   bytes 12..19 u64 payload size
 *   bytes 20..23 u32 CRC32 (IEEE, reflected) of the payload
 *   bytes 24..   payload
 *
 * Writes are atomic: the blob goes to <path>.tmp, is fsync'd, the
 * previous checkpoint (if any) rotates to <path>.prev, and the tmp
 * file renames into place. Each checkpoint path has one writer, so a
 * <path>.tmp left by a writer that died mid-write is swept by the
 * next write to the same path. A truncated, bit-flipped, or otherwise
 * corrupt <path> is detected on read (DataLoss) and
 * readCheckpointWithFallback transparently falls back to the rotated
 * previous-good file.
 *
 * Fault-injection sites: "ckpt.write" (truncate, bitflip, alloc) and
 * "ckpt.read" (alloc).
 */

#ifndef LRD_ROBUST_CHECKPOINT_H
#define LRD_ROBUST_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace lrd {

/** CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320). */
uint32_t crc32(const uint8_t *data, size_t n);
uint32_t crc32(const std::vector<uint8_t> &bytes);

/** Rotation target for the previous good checkpoint: <path>.prev. */
std::string checkpointPrevPath(const std::string &path);

/** In-flight write target: <path>.tmp. */
std::string checkpointTmpPath(const std::string &path);

/**
 * Atomically write a checkpoint (write-tmp, fsync, rotate, rename).
 * `version` is the pipeline's payload-format version and must match
 * on read.
 */
Status writeCheckpoint(const std::string &path, uint32_t version,
                       const std::vector<uint8_t> &payload);

/**
 * Read and verify one checkpoint file. NotFound when missing,
 * DataLoss when truncated/corrupt, InvalidArgument on a version
 * mismatch.
 */
Result<std::vector<uint8_t>> readCheckpoint(const std::string &path,
                                            uint32_t version);

/**
 * readCheckpoint(path), falling back to <path>.prev when the primary
 * is missing or damaged. `usedFallback` (optional) reports whether
 * the previous-good file supplied the payload.
 */
Result<std::vector<uint8_t>>
readCheckpointWithFallback(const std::string &path, uint32_t version,
                           bool *usedFallback = nullptr);

} // namespace lrd

#endif // LRD_ROBUST_CHECKPOINT_H
