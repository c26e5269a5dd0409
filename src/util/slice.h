// Slice: a non-owning view over a byte sequence, in the style of
// LevelDB/RocksDB. The referenced memory must outlive the Slice.

#ifndef MONKEYDB_UTIL_SLICE_H_
#define MONKEYDB_UTIL_SLICE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace monkeydb {

class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  // Implicit conversions from the common string types are intentional: keys
  // and values flow through the API as Slices.
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}               // NOLINT
  // A Slice over an rvalue std::string is a dangling view the moment the
  // full expression ends: `Slice s = key.ToString();` would read freed
  // memory on first use. Deleting the overload turns that typo into a
  // compile error; bind the string to a named local first. (Passing a
  // temporary as a Slice *argument* stays legal — it goes through the
  // const& overload and lives to the end of the call expression. The
  // string_view overload is not deleted for rvalues: a string_view is
  // itself a view, so there is no owner dying at expression end that this
  // signature could detect; monkey-lint's slice-dangling-source rule
  // covers what overload resolution cannot.)
  Slice(std::string&&) = delete;

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  // Drops the first n bytes from this slice.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view ToStringView() const {
    return std::string_view(data_, size_);
  }

  // Three-way comparison: <0, ==0, >0 if this is <, ==, > b, in
  // unsigned-bytewise order (a prefix sorts first). This is the engine's one
  // user-key order, so it is kept inline and free of calls: eight bytes at a
  // time, each word loaded big-endian so that integer order is byte order.
  int compare(const Slice& b) const {
    const size_t min_len = size_ < b.size_ ? size_ : b.size_;
    const auto* x = reinterpret_cast<const unsigned char*>(data_);
    const auto* y = reinterpret_cast<const unsigned char*>(b.data_);
    size_t i = 0;
    for (; i + 8 <= min_len; i += 8) {
      uint64_t wx, wy;
      memcpy(&wx, x + i, 8);
      memcpy(&wy, y + i, 8);
      if (wx != wy) {
        if constexpr (std::endian::native == std::endian::little) {
          wx = __builtin_bswap64(wx);
          wy = __builtin_bswap64(wy);
        }
        return wx < wy ? -1 : +1;
      }
    }
    for (; i < min_len; i++) {
      if (x[i] != y[i]) return x[i] < y[i] ? -1 : +1;
    }
    return size_ < b.size_ ? -1 : (size_ > b.size_ ? +1 : 0);
  }

  bool starts_with(const Slice& x) const {
    return size_ >= x.size_ && memcmp(data_, x.data_, x.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && memcmp(a.data(), b.data(), a.size()) == 0;
}

inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }

}  // namespace monkeydb

#endif  // MONKEYDB_UTIL_SLICE_H_
