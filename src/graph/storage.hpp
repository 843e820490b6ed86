// Runtime backing store for tensor data during simulation.
//
// Each tensor is one contiguous typed vector in host memory, organised as the
// concatenation of its per-tile regions. On the real machine the regions live
// in disjoint tile SRAMs; the simulator enforces that discipline at the API
// level — codelets can only touch the region of the tile they run on, and
// inter-tile data movement happens exclusively through Copy programs
// (exchange supersteps).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

#include "graph/scalar.hpp"
#include "graph/tensor.hpp"
#include "support/error.hpp"

namespace graphene::graph {

class TensorStorage {
 public:
  TensorStorage() = default;

  explicit TensorStorage(const TensorInfo& info) : dtype_(info.dtype) {
    offsets_.reserve(info.mapping.numTiles() + 1);
    std::size_t off = 0;
    for (std::size_t s : info.mapping.sizePerTile) {
      offsets_.push_back(off);
      off += s;
    }
    offsets_.push_back(off);
    switch (dtype_) {
      case DType::Bool: data_ = std::vector<std::uint8_t>(off, 0); break;
      case DType::Int32: data_ = std::vector<std::int32_t>(off, 0); break;
      case DType::Float32: data_ = std::vector<float>(off, 0.0f); break;
      case DType::Float64:
        data_ = std::vector<twofloat::SoftDouble>(off);
        break;
      case DType::DoubleWord:
        data_ = std::vector<twofloat::Float2>(off);
        break;
    }
  }

  DType dtype() const { return dtype_; }

  std::size_t totalElements() const { return offsets_.back(); }

  std::size_t tileOffset(std::size_t tile) const {
    GRAPHENE_DCHECK(tile + 1 < offsets_.size(), "tile out of range");
    return offsets_[tile];
  }

  std::size_t tileSize(std::size_t tile) const {
    GRAPHENE_DCHECK(tile + 1 < offsets_.size(), "tile out of range");
    return offsets_[tile + 1] - offsets_[tile];
  }

  /// Typed whole-tensor span (host-side access; used by Engine IO and tests).
  template <typename T>
  std::span<T> as() {
    return std::span<T>(std::get<std::vector<T>>(data_));
  }
  template <typename T>
  std::span<const T> as() const {
    return std::span<const T>(std::get<std::vector<T>>(data_));
  }

  /// Address of element `flatIndex` in the typed buffer. The buffer is
  /// allocated once, in the constructor, and moves with the storage object,
  /// so the pointer stays valid for the storage's lifetime (execution plans
  /// bind it once).
  void* elementData(std::size_t flatIndex) {
    GRAPHENE_DCHECK(flatIndex <= totalElements(), "index out of range");
    return std::visit(
        [&](auto& vec) -> void* { return vec.data() + flatIndex; }, data_);
  }

  /// Dynamically typed element access by flat index.
  Scalar load(std::size_t flatIndex) const {
    GRAPHENE_DCHECK(flatIndex < totalElements(), "index out of range");
    return std::visit(
        [&](const auto& vec) -> Scalar {
          using T = typename std::decay_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, std::uint8_t>) {
            return Scalar(vec[flatIndex] != 0);
          } else {
            return Scalar(vec[flatIndex]);
          }
        },
        data_);
  }

  void store(std::size_t flatIndex, const Scalar& value) {
    GRAPHENE_DCHECK(flatIndex < totalElements(), "index out of range");
    Scalar v = value.castTo(dtype_);
    std::visit(
        [&](auto& vec) {
          using T = typename std::decay_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, std::uint8_t>) {
            vec[flatIndex] = v.asBool() ? 1 : 0;
          } else if constexpr (std::is_same_v<T, std::int32_t>) {
            vec[flatIndex] = v.asInt();
          } else if constexpr (std::is_same_v<T, float>) {
            vec[flatIndex] = v.asFloat();
          } else if constexpr (std::is_same_v<T, twofloat::SoftDouble>) {
            vec[flatIndex] = v.asSoftDouble();
          } else {
            vec[flatIndex] = v.asDoubleWord();
          }
        },
        data_);
  }

  /// Sets every element to `value`. Casts once and fills the typed vector —
  /// the bulk path for broadcasting into replicated scalar tensors.
  void fill(const Scalar& value) {
    Scalar v = value.castTo(dtype_);
    std::visit(
        [&](auto& vec) {
          using T = typename std::decay_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, std::uint8_t>) {
            std::fill(vec.begin(), vec.end(),
                      static_cast<std::uint8_t>(v.asBool() ? 1 : 0));
          } else if constexpr (std::is_same_v<T, std::int32_t>) {
            std::fill(vec.begin(), vec.end(), v.asInt());
          } else if constexpr (std::is_same_v<T, float>) {
            std::fill(vec.begin(), vec.end(), v.asFloat());
          } else if constexpr (std::is_same_v<T, twofloat::SoftDouble>) {
            std::fill(vec.begin(), vec.end(), v.asSoftDouble());
          } else {
            std::fill(vec.begin(), vec.end(), v.asDoubleWord());
          }
        },
        data_);
  }

  /// Flips one bit of an element's raw storage representation — the
  /// simulated analogue of an SRAM single-event upset (fault injection).
  /// Bit indices wrap modulo the element's bit width. For DoubleWord pairs,
  /// bits 0–31 hit the high word and 32–63 the low word.
  void flipBit(std::size_t flatIndex, unsigned bit) {
    GRAPHENE_DCHECK(flatIndex < totalElements(), "index out of range");
    std::visit(
        [&](auto& vec) {
          using T = typename std::decay_t<decltype(vec)>::value_type;
          if constexpr (std::is_same_v<T, std::uint8_t>) {
            vec[flatIndex] ^= 1;  // a bool cell can only toggle
          } else if constexpr (std::is_same_v<T, std::int32_t>) {
            vec[flatIndex] = std::bit_cast<std::int32_t>(
                std::bit_cast<std::uint32_t>(vec[flatIndex]) ^
                (std::uint32_t(1) << (bit % 32)));
          } else if constexpr (std::is_same_v<T, float>) {
            vec[flatIndex] = std::bit_cast<float>(
                std::bit_cast<std::uint32_t>(vec[flatIndex]) ^
                (std::uint32_t(1) << (bit % 32)));
          } else if constexpr (std::is_same_v<T, twofloat::SoftDouble>) {
            vec[flatIndex] = twofloat::SoftDouble::fromBits(
                vec[flatIndex].bits() ^ (std::uint64_t(1) << (bit % 64)));
          } else {
            float& word = (bit % 64) < 32 ? vec[flatIndex].hi
                                          : vec[flatIndex].lo;
            word = std::bit_cast<float>(std::bit_cast<std::uint32_t>(word) ^
                                        (std::uint32_t(1) << (bit % 32)));
          }
        },
        data_);
  }

  /// Raw element copy from another storage of the same dtype (exchange path;
  /// the fabric moves bytes, not values).
  void copyFrom(const TensorStorage& src, std::size_t srcFlat,
                std::size_t dstFlat, std::size_t count) {
    GRAPHENE_CHECK(src.dtype_ == dtype_, "exchange between different dtypes");
    GRAPHENE_DCHECK(srcFlat + count <= src.totalElements(), "src overrun");
    GRAPHENE_DCHECK(dstFlat + count <= totalElements(), "dst overrun");
    std::visit(
        [&](auto& dstVec) {
          using V = std::decay_t<decltype(dstVec)>;
          const auto& srcVec = std::get<V>(src.data_);
          std::copy(srcVec.begin() + static_cast<std::ptrdiff_t>(srcFlat),
                    srcVec.begin() + static_cast<std::ptrdiff_t>(srcFlat + count),
                    dstVec.begin() + static_cast<std::ptrdiff_t>(dstFlat));
        },
        data_);
  }

 private:
  DType dtype_ = DType::Float32;
  std::vector<std::size_t> offsets_;  // per-tile offsets + total at back
  std::variant<std::vector<std::uint8_t>, std::vector<std::int32_t>,
               std::vector<float>, std::vector<twofloat::SoftDouble>,
               std::vector<twofloat::Float2>>
      data_;
};

// The engine's storage vector grows as tensors are added; moving (not
// copying) the storage objects is what keeps plan-bound data pointers valid.
static_assert(std::is_nothrow_move_constructible_v<TensorStorage>);

}  // namespace graphene::graph
