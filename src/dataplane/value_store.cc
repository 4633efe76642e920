#include "dataplane/value_store.h"

#include <bit>
#include <cstring>

#include "common/logging.h"

namespace netcache {

ValueStore::ValueStore(size_t num_stages, size_t num_indexes) : num_indexes_(num_indexes) {
  NC_CHECK(num_stages > 0 && num_stages <= 32);
  NC_CHECK(num_indexes > 0);
  stages_.reserve(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    stages_.emplace_back(num_indexes);
  }
}

void ValueStore::WriteValue(uint32_t bitmap, size_t index, const Value& value) {
  NC_CHECK(index < num_indexes_);
  size_t units_available = static_cast<size_t>(std::popcount(bitmap));
  NC_CHECK(units_available * kValueUnitSize >= value.size())
      << "value of " << value.size() << " bytes does not fit " << units_available << " units";
  size_t offset = 0;
  for (size_t stage = 0; stage < stages_.size(); ++stage) {
    if ((bitmap & (1u << stage)) == 0) {
      continue;
    }
    ValueUnit unit{};
    size_t n = value.size() > offset ? value.size() - offset : 0;
    if (n > kValueUnitSize) {
      n = kValueUnitSize;
    }
    std::memcpy(unit.data(), value.data() + offset, n);
    stages_[stage].Write(index, unit);
    offset += kValueUnitSize;
  }
}

Value ValueStore::ReadValue(uint32_t bitmap, size_t index, size_t size_bytes) const {
  Value out;
  ReadValueInto(bitmap, index, size_bytes, &out);
  return out;
}

void ValueStore::ReadValueInto(uint32_t bitmap, size_t index, size_t size_bytes,
                               Value* out) const {
  NC_CHECK(index < num_indexes_);
  size_t units_available = static_cast<size_t>(std::popcount(bitmap));
  NC_CHECK(size_bytes <= units_available * kValueUnitSize);
  out->set_size(size_bytes);
  size_t offset = 0;
  for (size_t stage = 0; stage < stages_.size() && offset < size_bytes; ++stage) {
    if ((bitmap & (1u << stage)) == 0) {
      continue;
    }
    const ValueUnit& unit = stages_[stage].Read(index);
    size_t n = size_bytes - offset;
    if (n > kValueUnitSize) {
      n = kValueUnitSize;
    }
    std::memcpy(out->data() + offset, unit.data(), n);
    offset += kValueUnitSize;
  }
}

void GatherValueSlots(const uint8_t* const* srcs, uint8_t* const* dsts, size_t n) {
  // Four loads before four stores: independent copies in flight cover the
  // pointer-chase latency a one-at-a-time loop serializes (the plain loop
  // measured slower on perfbench's switch-burst workload). Loading all four
  // first is only sound because no dst overlaps a src.
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ValueUnit a, b, c, d;
    std::memcpy(a.data(), srcs[i], kValueUnitSize);
    std::memcpy(b.data(), srcs[i + 1], kValueUnitSize);
    std::memcpy(c.data(), srcs[i + 2], kValueUnitSize);
    std::memcpy(d.data(), srcs[i + 3], kValueUnitSize);
    std::memcpy(dsts[i], a.data(), kValueUnitSize);
    std::memcpy(dsts[i + 1], b.data(), kValueUnitSize);
    std::memcpy(dsts[i + 2], c.data(), kValueUnitSize);
    std::memcpy(dsts[i + 3], d.data(), kValueUnitSize);
  }
  for (; i < n; ++i) {
    std::memcpy(dsts[i], srcs[i], kValueUnitSize);
  }
}

size_t ValueStore::MemoryBits() const {
  size_t bits = 0;
  for (const auto& s : stages_) {
    bits += s.MemoryBits();
  }
  return bits;
}

}  // namespace netcache
