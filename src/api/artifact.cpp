// Binary model artifact serialisation (format in artifact.h). The writer
// packs explicit little-endian scalars into one flat buffer; the reader
// walks the same layout through a bounds-checked cursor, so a truncated or
// hostile file throws ArtifactError instead of reading out of range —
// memory consumed while loading is bounded by the bytes actually present.
#include "api/artifact.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "api/model.h"

#if defined(__unix__) || defined(__APPLE__)
#define MCDC_ARTIFACT_MMAP 1
#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <filesystem>
#endif

namespace mcdc::api {

std::uint32_t artifact_crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

// --- little-endian writer --------------------------------------------------

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// --- bounds-checked little-endian reader -----------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }

  const std::uint8_t* take(std::size_t bytes, const char* what) {
    if (bytes > remaining()) {
      throw ArtifactError("truncated: " + std::string(what) + " needs " +
                          std::to_string(bytes) + " bytes, " +
                          std::to_string(remaining()) + " remain");
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += bytes;
    return at;
  }

  std::uint32_t u32(const char* what) {
    const std::uint8_t* p = take(4, what);
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }

  std::uint64_t u64(const char* what) {
    const std::uint8_t* p = take(8, what);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    }
    return v;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }

  double f64(const char* what) {
    return std::bit_cast<double>(u64(what));
  }

  std::string str(const char* what) {
    const std::uint32_t len = u32(what);
    const std::uint8_t* p = take(len, what);
    return std::string(reinterpret_cast<const char*>(p), len);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kFlagDictionaries = 1;

}  // namespace

std::vector<std::uint8_t> Model::to_binary(bool include_training_labels) const {
  // A k = 0 online snapshot serialises fine (its schema is the payload);
  // only a schema-less default-constructed model has nothing to write.
  if (!has_schema()) {
    throw std::logic_error("Model::to_binary: unfitted model");
  }
  const std::size_t d = num_features();

  // Payload first; the header needs its size and checksum.
  std::vector<std::uint8_t> payload;
  put_str(payload, method_);
  for (const int m : cardinalities()) put_i32(payload, m);
  for (int l = 0; l < k(); ++l) put_f64(payload, bank_.size(l));
  for (int l = 0; l < k(); ++l) {
    for (std::size_t r = 0; r < d; ++r) put_f64(payload, bank_.non_null(l, r));
  }
  for (int l = 0; l < k(); ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      for (data::Value v = 0; v < cardinalities()[r]; ++v) {
        put_f64(payload, bank_.count(l, r, v));
      }
    }
  }
  const std::uint64_t n =
      include_training_labels ? training_labels_.size() : 0;
  if (include_training_labels) {
    for (const int l : training_labels_) put_i32(payload, l);
  }
  put_u32(payload, static_cast<std::uint32_t>(kappa_.size()));
  for (const int kj : kappa_) put_i32(payload, kj);
  put_u32(payload, static_cast<std::uint32_t>(theta_.size()));
  for (const double t : theta_) put_f64(payload, t);
  const bool dictionaries = !values_.empty();
  if (dictionaries) {
    for (const auto& feature_values : values_) {
      for (const std::string& name : feature_values) put_str(payload, name);
    }
  }

  std::vector<std::uint8_t> out;
  out.reserve(kArtifactHeaderBytes + payload.size());
  for (const char c : kArtifactMagic) {
    out.push_back(static_cast<std::uint8_t>(c));
  }
  put_u32(out, kArtifactVersion);
  put_u32(out, static_cast<std::uint32_t>(kArtifactHeaderBytes));
  put_u64(out, payload.size());
  put_u32(out, artifact_crc32(payload.data(), payload.size()));
  put_u32(out, static_cast<std::uint32_t>(k()));
  put_u64(out, d);
  put_u64(out, n);
  put_u64(out, dictionaries ? kFlagDictionaries : 0);
  put_u64(out, 0);  // reserved
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Model Model::from_binary(const std::uint8_t* data, std::size_t size) {
  if (size < kArtifactHeaderBytes) {
    throw ArtifactError("truncated: " + std::to_string(size) +
                        " bytes is smaller than the " +
                        std::to_string(kArtifactHeaderBytes) + "-byte header");
  }
  Reader header(data, kArtifactHeaderBytes);
  const std::uint8_t* magic = header.take(8, "magic");
  if (std::memcmp(magic, kArtifactMagic, 8) != 0) {
    throw ArtifactError("bad magic (not an MCDC model artifact)");
  }
  const std::uint32_t version = header.u32("version");
  if (version != 1 && version != kArtifactVersion) {
    throw ArtifactError("unsupported format version " +
                        std::to_string(version) + " (this build reads 1 to " +
                        std::to_string(kArtifactVersion) + ")");
  }
  const std::uint32_t header_bytes = header.u32("header size");
  if (header_bytes != kArtifactHeaderBytes) {
    throw ArtifactError("bad header size " + std::to_string(header_bytes));
  }
  const std::uint64_t payload_bytes = header.u64("payload size");
  if (payload_bytes != size - kArtifactHeaderBytes) {
    throw ArtifactError(
        "truncated: header promises " + std::to_string(payload_bytes) +
        " payload bytes, file carries " +
        std::to_string(size - kArtifactHeaderBytes));
  }
  const std::uint32_t stored_crc = header.u32("checksum");
  const std::uint32_t k = header.u32("k");
  const std::uint64_t d = header.u64("feature count");
  const std::uint64_t n = header.u64("label count");
  const std::uint64_t flags = header.u64("flags");
  // k = 0 is a valid empty online snapshot; a zero-feature schema is not.
  if (d == 0) throw ArtifactError("feature count must be > 0");

  // One linear pass over the payload — the only full scan a load performs.
  const std::uint8_t* payload = data + kArtifactHeaderBytes;
  const std::uint32_t computed_crc =
      artifact_crc32(payload, static_cast<std::size_t>(payload_bytes));
  if (computed_crc != stored_crc) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch (stored %08x, computed %08x)", stored_crc,
                  computed_crc);
    throw ArtifactError(buf);
  }

  // Nothing below reserves from header counts: every element is read
  // (bounds-checked) before it is stored, so a hostile k, d or n costs at
  // most the bytes actually present.
  Reader body(payload, static_cast<std::size_t>(payload_bytes));
  Model model;
  model.method_ = body.str("method name");
  std::vector<int> cardinalities;
  std::size_t cells = 0;
  for (std::uint64_t r = 0; r < d; ++r) {
    const std::int32_t m = body.i32("cardinality");
    if (m < 0) throw ArtifactError("negative cardinality");
    cardinalities.push_back(m);
    cells += static_cast<std::size_t>(m);
  }
  std::vector<double> sizes;
  std::vector<double> non_null;
  std::vector<double> counts;
  if (version == 1) {
    // Version 1: i32 sizes and counts; the non-null totals are the row
    // sums, exact for the integral counts this version holds.
    for (std::uint32_t l = 0; l < k; ++l) {
      const std::int32_t s = body.i32("cluster size");
      if (s < 0) throw ArtifactError("negative cluster size");
      sizes.push_back(s);
    }
    for (std::uint32_t l = 0; l < k; ++l) {
      for (const int m : cardinalities) {
        double total = 0.0;
        for (int v = 0; v < m; ++v) {
          const std::int32_t c = body.i32("histogram count");
          if (c < 0) throw ArtifactError("negative histogram count");
          counts.push_back(c);
          total += c;
        }
        non_null.push_back(total);
      }
    }
  } else {
    // Version 2: the bank verbatim as f64, non-null totals stored (under
    // decay they are not the row sums of the counts).
    const auto histogram_value = [&body](const char* what) {
      const double x = body.f64(what);
      if (!std::isfinite(x) || x < 0.0) {
        throw ArtifactError(std::string(what) + " is negative or non-finite");
      }
      return x;
    };
    for (std::uint32_t l = 0; l < k; ++l) {
      sizes.push_back(histogram_value("cluster size"));
    }
    for (std::uint32_t l = 0; l < k; ++l) {
      for (std::uint64_t r = 0; r < d; ++r) {
        non_null.push_back(histogram_value("non-null total"));
      }
    }
    for (std::uint32_t l = 0; l < k; ++l) {
      for (std::size_t c = 0; c < cells; ++c) {
        counts.push_back(histogram_value("histogram count"));
      }
    }
  }
  model.bank_ =
      core::ProfileSet::from_arrays(cardinalities, sizes, non_null, counts);
  for (std::uint64_t i = 0; i < n; ++i) {
    model.training_labels_.push_back(body.i32("training label"));
  }
  const std::uint32_t kappa_count = body.u32("kappa count");
  for (std::uint32_t j = 0; j < kappa_count; ++j) {
    model.kappa_.push_back(body.i32("kappa"));
  }
  const std::uint32_t theta_count = body.u32("theta count");
  for (std::uint32_t j = 0; j < theta_count; ++j) {
    model.theta_.push_back(body.f64("theta"));
  }
  if ((flags & kFlagDictionaries) != 0) {
    model.values_.resize(cardinalities.size());
    for (std::size_t r = 0; r < cardinalities.size(); ++r) {
      for (int v = 0; v < cardinalities[r]; ++v) {
        model.values_[r].push_back(body.str("dictionary entry"));
      }
    }
  }
  if (body.remaining() != 0) {
    throw ArtifactError(std::to_string(body.remaining()) +
                        " trailing bytes after the last section");
  }
  model.bank_.freeze();
  return model;
}

void Model::save_binary(const std::string& path,
                        bool include_training_labels) const {
  const std::vector<std::uint8_t> bytes = to_binary(include_training_labels);
  // Crash-safe replace: the bytes land in a sibling temp file, which is
  // flushed to stable storage and then renamed over the target. rename is
  // atomic, so the target always holds the previous artifact or the new
  // one, never a torn mix; a failure removes the temp file it created.
  const std::string tmp = path + ".tmp";
#if defined(MCDC_ARTIFACT_MMAP)
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw ArtifactError("cannot open " + tmp + " for writing");
  const auto discard = [&](const std::string& what) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw ArtifactError(what);
  };
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t w =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) discard("short write to " + tmp);
    written += static_cast<std::size_t>(w);
  }
  if (::fsync(fd) != 0) discard("cannot sync " + tmp);
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw ArtifactError("cannot close " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw ArtifactError("cannot rename " + tmp + " over " + path);
  }
#else
  std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
  if (!file) throw ArtifactError("cannot open " + tmp + " for writing");
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file.close();
  std::error_code error;
  if (file) std::filesystem::rename(tmp, path, error);
  if (!file || error) {
    std::filesystem::remove(tmp, error);
    throw ArtifactError("cannot write " + path);
  }
#endif
}

Model Model::load_binary(const std::string& path) {
#if defined(MCDC_ARTIFACT_MMAP)
  // The O(header) + map load: the file is mapped read-only, validated and
  // walked in place; nothing is copied until a section lands in its Model
  // vector.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw ArtifactError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw ArtifactError("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw ArtifactError("empty file " + path);
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) throw ArtifactError("cannot map " + path);
  try {
    Model model =
        from_binary(static_cast<const std::uint8_t*>(mapped), size);
    ::munmap(mapped, size);
    return model;
  } catch (...) {
    ::munmap(mapped, size);
    throw;
  }
#else
  std::ifstream file(path, std::ios::binary);
  if (!file) throw ArtifactError("cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  return from_binary(bytes.data(), bytes.size());
#endif
}

}  // namespace mcdc::api
