// Binary model artifacts — the compact on-disk form of a fitted api::Model.
//
// JSON (Model::to_json / from_json) stays the debug path: readable, diffable,
// slow. The serving tier wants the opposite trade: a versioned, checksummed
// container whose load cost is one mmap plus a linear checksum scan — no
// tokenising, no number grammar, no string escapes. Layout (little-endian):
//
//   offset size  field
//   0      8     magic "MCDCMDL1"
//   8      4     u32 format version (kArtifactVersion)
//   12     4     u32 header bytes (kArtifactHeaderBytes; fixed)
//   16     8     u64 payload bytes (file size minus the header)
//   24     4     u32 CRC-32 (IEEE 802.3) over the payload
//   28     4     u32 k (clusters; >= 0 — a k = 0 snapshot is valid)
//   32     8     u64 d (features; > 0)
//   40     8     u64 n (training labels; 0 when stripped)
//   48     8     u64 flags (bit 0: value dictionaries present)
//   56     8     u64 reserved (0)
//   64     ...   payload sections, in order:
//                  method name        u32 len + bytes
//                  cardinalities      i32[d]
//                  cluster sizes      f64[k]
//                  non-null totals    f64[d] per cluster, cluster-major
//                  histogram bank     f64[m_r] per (cluster, feature),
//                                     cluster-major — the core::ProfileSet
//                                     bank verbatim, so decayed fractional
//                                     counts survive; the frozen quotient
//                                     cache is rebuilt from these by the
//                                     same divisions the JSON path runs
//                  training labels    i32[n]
//                  kappa staircase    u32 count + i32[count]
//                  theta weights      u32 count + f64[count]
//                  dictionaries       per feature, per value: u32 len + bytes
//                                     (present when flags bit 0 is set)
//
// Version 1 artifacts still load. They hold i32 cluster sizes and i32
// counts and no non-null section; the totals are derived as the row sums
// of the counts, which is exact for integral counts. The writer always
// emits version 2.
//
// Every load failure — truncation anywhere, a foreign magic, an unknown
// version, a checksum mismatch, a section over-read, a semantically
// impossible field (a negative cardinality; a negative, NaN or infinite
// size, total or count) — throws ArtifactError (a std::runtime_error
// subclass) before any Model state is built: loads fail closed, never UB.
// Model::save_binary replaces its target atomically (model.h). The reader
// bounds-checks every access against the mapped range, so a hostile file
// costs at most one O(payload) pass.
//
// The entry points live on api::Model (model.h): save_binary / load_binary
// for files (load mmaps on POSIX), to_binary / from_binary for buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mcdc::api {

// Typed load/save failure for binary model artifacts. Everything the
// binary path rejects comes through here (the JSON path keeps its
// std::runtime_error), so serving code can distinguish "artifact is bad"
// from other failures without string matching.
class ArtifactError : public std::runtime_error {
 public:
  explicit ArtifactError(const std::string& what)
      : std::runtime_error("model artifact: " + what) {}
};

// "MCDCMDL1", 8 bytes, no terminator.
inline constexpr char kArtifactMagic[8] = {'M', 'C', 'D', 'C',
                                           'M', 'D', 'L', '1'};
inline constexpr std::uint32_t kArtifactVersion = 2;
inline constexpr std::size_t kArtifactHeaderBytes = 64;

// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the artifact
// payload checksum. Exposed for tests that forge deliberately corrupt
// artifacts.
std::uint32_t artifact_crc32(const std::uint8_t* data, std::size_t size);

}  // namespace mcdc::api
