#include "graph/codelet.hpp"

namespace graphene::graph {

Scalar VertexContext::load(std::size_t arg, std::size_t index) const {
  const ArgSpan& a = at(arg);
  GRAPHENE_DCHECK(index < a.size, "codelet read past its slice");
  switch (a.dtype) {
    case DType::Bool:
      return Scalar(static_cast<const std::uint8_t*>(a.data)[index] != 0);
    case DType::Int32:
      return Scalar(static_cast<const std::int32_t*>(a.data)[index]);
    case DType::Float32:
      return Scalar(static_cast<const float*>(a.data)[index]);
    case DType::Float64:
      return Scalar(static_cast<const twofloat::SoftDouble*>(a.data)[index]);
    case DType::DoubleWord:
      return Scalar(static_cast<const twofloat::Float2*>(a.data)[index]);
  }
  GRAPHENE_UNREACHABLE("bad dtype");
}

void VertexContext::store(std::size_t arg, std::size_t index,
                          const Scalar& value) {
  const ArgSpan& a = at(arg);
  GRAPHENE_DCHECK(index < a.size, "codelet write past its slice");
  const Scalar v = value.castTo(a.dtype);
  switch (a.dtype) {
    case DType::Bool:
      static_cast<std::uint8_t*>(a.data)[index] = v.asBool() ? 1 : 0;
      return;
    case DType::Int32:
      static_cast<std::int32_t*>(a.data)[index] = v.asInt();
      return;
    case DType::Float32:
      static_cast<float*>(a.data)[index] = v.asFloat();
      return;
    case DType::Float64:
      static_cast<twofloat::SoftDouble*>(a.data)[index] = v.asSoftDouble();
      return;
    case DType::DoubleWord:
      static_cast<twofloat::Float2*>(a.data)[index] = v.asDoubleWord();
      return;
  }
  GRAPHENE_UNREACHABLE("bad dtype");
}

std::span<float> VertexContext::floatSpan(std::size_t arg) const {
  const ArgSpan& a = at(arg);
  GRAPHENE_CHECK(a.dtype == DType::Float32,
                 "floatSpan on a non-float32 argument");
  return {static_cast<float*>(a.data), a.size};
}

}  // namespace graphene::graph
