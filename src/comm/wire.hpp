// Byte-level reader/writer for the FLC1 wire format shared by the
// codec implementations. Internal to src/comm/ — user code talks to
// ParameterCodec, never to these helpers.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fl/parameters.hpp"

namespace fleda {
namespace wire {

constexpr char kMagic[4] = {'F', 'L', 'C', '1'};

struct Writer {
  std::vector<std::uint8_t>& out;

  void bytes(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    out.insert(out.end(), p, p + n);
  }
  template <typename T>
  void pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(value));
  }
  void str(const std::string& s) {
    pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  // Appends n bytes for the caller to fill; valid until the next write.
  std::uint8_t* span(std::size_t n) {
    const std::size_t at = out.size();
    out.resize(at + n);
    return out.data() + at;
  }
};

struct Reader {
  const std::uint8_t* cursor = nullptr;
  const std::uint8_t* end = nullptr;

  explicit Reader(const std::vector<std::uint8_t>& blob)
      : cursor(blob.data()), end(blob.data() + blob.size()) {}

  std::size_t remaining() const {
    return static_cast<std::size_t>(end - cursor);
  }

  // The next n bytes, in place; throws if fewer are left.
  const std::uint8_t* span(std::size_t n) {
    if (static_cast<std::size_t>(end - cursor) < n) {
      throw std::runtime_error("FLC1: truncated buffer");
    }
    const std::uint8_t* at = cursor;
    cursor += n;
    return at;
  }
  void bytes(void* dst, std::size_t n) { std::memcpy(dst, span(n), n); }
  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    bytes(&value, sizeof(value));
    return value;
  }
  std::string str() {
    const std::uint32_t len = pod<std::uint32_t>();
    if (len > (1u << 16)) throw std::runtime_error("FLC1: bad string length");
    std::string s(len, '\0');
    bytes(s.data(), len);
    return s;
  }
};

// Magic + codec id + entry count.
void write_preamble(Writer& w, std::uint8_t codec_id, std::uint32_t entries);
// Verifies magic and that the blob was produced by `expected_codec`;
// returns the entry count.
std::uint32_t read_preamble(Reader& r, std::uint8_t expected_codec);

// Per-entry metadata: name, buffer flag, shape.
void write_entry_meta(Writer& w, const ParameterEntry& entry);

struct EntryMeta {
  std::string name;
  bool is_buffer = false;
  Shape shape;
};
// Reads an entry's metadata without allocating its tensor. Throws
// std::runtime_error on a bad rank, a negative dim, or an element count
// that overflows int64 — the bytes are untrusted.
EntryMeta read_entry_meta(Reader& r);
// A zero-filled entry of meta's shape, allocated only after checking
// that the bytes left in `r` can hold its element count at
// `element_bytes` each, so a blob never makes the decoder allocate
// more than it carries.
ParameterEntry allocate_entry(const Reader& r, EntryMeta meta,
                              std::size_t element_bytes);

}  // namespace wire
}  // namespace fleda
