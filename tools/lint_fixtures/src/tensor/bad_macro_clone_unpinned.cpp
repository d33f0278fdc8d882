// Fixture: ISA-cloned kernel TU that clones through the shared macro
// (the literal attribute lives in a header) and has no -ffp-contract=off
// pin in the fixture CMakeLists.txt. Expected hits: fp-contract-pin x1.
#include <cstddef>

#include "util/vec_clones.hpp"

SKIPTRAIN_VEC_CLONES("avx2", "default")
void axpy(float* y, const float* x, std::size_t n, float alpha) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}
