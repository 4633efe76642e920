// Values: up to 128 bytes, stored inline (the prototype's maximum value size;
// 8 egress stages x 16-byte register slots, §6).

#ifndef NETCACHE_PROTO_VALUE_H_
#define NETCACHE_PROTO_VALUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace netcache {

inline constexpr size_t kMaxValueSize = 128;
// Granularity of on-chip value storage: one register-array slot is 16 bytes.
inline constexpr size_t kValueUnitSize = 16;

class Value {
 public:
  Value() = default;

  static Value FromString(std::string_view s) {
    Value v;
    v.size_ = static_cast<uint8_t>(s.size() > kMaxValueSize ? kMaxValueSize : s.size());
    std::memcpy(v.data_.data(), s.data(), v.size_);
    return v;
  }

  // A deterministic filler value of `size` bytes derived from `tag`;
  // used by workloads and verified end-to-end in tests.
  static Value Filler(uint64_t tag, size_t size);

  const uint8_t* data() const { return data_.data(); }
  uint8_t* data() { return data_.data(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void set_size(size_t size) { size_ = static_cast<uint8_t>(size); }

  // Number of 16-byte register slots this value occupies.
  size_t NumUnits() const { return (size_ + kValueUnitSize - 1) / kValueUnitSize; }

  std::string_view AsStringView() const {
    return std::string_view(reinterpret_cast<const char*>(data_.data()), size_);
  }

  bool operator==(const Value& other) const {
    return size_ == other.size_ && std::memcmp(data_.data(), other.data_.data(), size_) == 0;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  uint8_t size_ = 0;
  std::array<uint8_t, kMaxValueSize> data_{};
};

namespace internal {
// Filler byte i is byte (i % 8) of `tag` XOR the low byte of i * 0x9d. The
// XOR pattern of each 8-byte word is precomputed, so a value is built one
// word per step; bytes past `size` stay zero.
inline constexpr std::array<uint64_t, kMaxValueSize / 8> kFillerPattern = [] {
  std::array<uint64_t, kMaxValueSize / 8> pattern{};
  for (size_t i = 0; i < kMaxValueSize; ++i) {
    pattern[i / 8] |= uint64_t{static_cast<uint8_t>(i * 0x9d)} << ((i % 8) * 8);
  }
  return pattern;
}();
}  // namespace internal

inline Value Value::Filler(uint64_t tag, size_t size) {
  // Words are stored with memcpy, so byte j of a word lands at offset j.
  static_assert(std::endian::native == std::endian::little);
  Value v;
  if (size > kMaxValueSize) {
    size = kMaxValueSize;
  }
  v.size_ = static_cast<uint8_t>(size);
  size_t w = 0;
  for (; w < size / 8; ++w) {
    uint64_t word = tag ^ internal::kFillerPattern[w];
    std::memcpy(v.data_.data() + w * 8, &word, sizeof(word));
  }
  if (size % 8 != 0) {
    uint64_t word = (tag ^ internal::kFillerPattern[w]) & ((uint64_t{1} << ((size % 8) * 8)) - 1);
    std::memcpy(v.data_.data() + w * 8, &word, sizeof(word));
  }
  return v;
}

}  // namespace netcache

#endif  // NETCACHE_PROTO_VALUE_H_
