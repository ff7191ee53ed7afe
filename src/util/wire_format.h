#ifndef CPD_UTIL_WIRE_FORMAT_H_
#define CPD_UTIL_WIRE_FORMAT_H_

/// \file wire_format.h
/// The one little-endian byte codec of the project: the .cpdb model
/// artifact, the .cpdd delta (core/model_artifact.h, core/model_delta.h)
/// and the distributed-executor wire protocol (src/dist/wire.h) all encode
/// with WireWriter and decode with WireReader; no format keeps a private
/// reader. WireWriter appends fixed-width scalars, byte runs, count-less
/// arrays and u64-length-prefixed strings/vectors to a std::string, and
/// patches a fixed offset it already wrote (a checksum field). WireReader
/// consumes the same forms with sticky, typed error reporting: the first
/// over-read latches an OutOfRange status ("truncated"), every later read
/// returns zeros, and callers check status() once at the end — plus
/// ExpectDone() to reject trailing bytes. Every length is checked against
/// the remaining bytes before any allocation, so a forged count is an
/// error, never an allocation sized by the input. HeaderChecksum is the
/// FNV-1a 32 the file headers carry.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace cpd {

class WireWriter {
 public:
  /// Appends to *out; the caller keeps ownership (must outlive the writer).
  explicit WireWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Append(&v, sizeof(v)); }
  void U64(uint64_t v) { Append(&v, sizeof(v)); }
  void I32(int32_t v) { Append(&v, sizeof(v)); }
  void I64(int64_t v) { Append(&v, sizeof(v)); }
  void F64(double v) { Append(&v, sizeof(v)); }

  void Bool(bool v) { U8(v ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void Bytes(std::string_view s) { Append(s.data(), s.size()); }

  /// u64 length prefix + raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }

  /// Packed little-endian elements, no count prefix (one append).
  template <typename T>
  void Array(const std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T>);
    Append(v.data(), v.size() * sizeof(T));
  }

  /// u64 element-count prefix + packed little-endian elements.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U64(v.size());
    Array(v);
  }

  /// Overwrites the sizeof(T) bytes already written at `offset`.
  template <typename T>
  void StoreAt(size_t offset, T value) {
    static_assert(std::is_arithmetic_v<T>);
    std::memcpy(out_->data() + offset, &value, sizeof(T));
  }

 private:
  void Append(const void* data, size_t n) {
    if (n > 0) out_->append(static_cast<const char*>(data), n);
  }

  std::string* out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8() { return Take<uint8_t>(); }
  uint32_t U32() { return Take<uint32_t>(); }
  uint64_t U64() { return Take<uint64_t>(); }
  int32_t I32() { return Take<int32_t>(); }
  int64_t I64() { return Take<int64_t>(); }
  double F64() { return Take<double>(); }
  bool Bool() { return U8() != 0; }

  /// The next `n` raw bytes as a view into the input (empty on over-read).
  std::string_view Bytes(uint64_t n) {
    if (!CheckAvailable(n, 1)) return {};
    const std::string_view bytes = data_.substr(pos_, n);
    pos_ += n;
    return bytes;
  }

  /// Reads a u64-length-prefixed string.
  std::string Str() { return std::string(Bytes(U64())); }

  /// Reads `n` packed elements with no count prefix (one memcpy). `n` is
  /// validated against the remaining bytes before any allocation.
  template <typename T>
  void Array(uint64_t n, std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T>);
    if (!CheckAvailable(n, sizeof(T))) {
      out->clear();
      return;
    }
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// Reads a u64-count-prefixed packed vector; a corrupt count is an
  /// OutOfRange error, never an OOM resize.
  template <typename T>
  void Vec(std::vector<T>* out) {
    const uint64_t n = U64();
    Array(n, out);
  }

  size_t remaining() const { return data_.size() - pos_; }

  /// OK until the first over-read; then the latched OutOfRange error.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  /// OK only if every byte was consumed and no read failed (trailing bytes
  /// are an OutOfRange error).
  Status ExpectDone() const {
    CPD_RETURN_IF_ERROR(status_);
    if (pos_ != data_.size()) {
      return Status::OutOfRange("wire: " + std::to_string(remaining()) +
                                " trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  bool CheckAvailable(uint64_t count, size_t elem_size) {
    if (!status_.ok()) return false;
    if (count > remaining() / elem_size) {
      status_ = Status::OutOfRange("wire: truncated payload");
      return false;
    }
    return true;
  }

  template <typename T>
  T Take() {
    T v{};
    if (CheckAvailable(1, sizeof(T))) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// FNV-1a 32 over `bytes` with the u32 field at `checksum_offset` read as
/// zero, so any flipped header bit — the stored checksum included — is
/// caught.
inline uint32_t HeaderChecksum(std::string_view bytes,
                               size_t checksum_offset) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < bytes.size(); ++i) {
    const bool in_field =
        i >= checksum_offset && i < checksum_offset + sizeof(uint32_t);
    hash = (hash ^ (in_field ? 0u : static_cast<unsigned char>(bytes[i]))) *
           16777619u;
  }
  return hash;
}

}  // namespace cpd

#endif  // CPD_UTIL_WIRE_FORMAT_H_
