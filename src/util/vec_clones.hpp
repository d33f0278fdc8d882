// SKIPTRAIN_VEC_CLONES(...): compile one function once per listed ISA
// (GCC target_clones) and pick the widest the host supports at load time
// through an IFUNC resolver. The argument is the clone list, e.g.
//
//   SKIPTRAIN_VEC_CLONES("avx2", "default")
//   void kernel(...);
//
// Bit-identity rule: every TU using the macro must be built with
// -ffp-contract=off (CMakeLists.txt's SKIPTRAIN_KERNELS_OPTIONS, enforced
// by tools/lint_determinism.py's fp-contract-pin rule). Without the pin a
// clone whose target has FMA would fuse `acc + a * b` into one rounding
// while the default clone rounds twice, so the wide clone's bits would
// depend on the host. With it, each clone runs the same IEEE operations
// in the same order — vectorizing across independent output lanes, never
// reassociating a reduction — and so produces the same bits.
//
// The macro expands to nothing where IFUNC dispatch is unavailable or
// unwanted: non-x86-64 or non-ELF targets, Clang (different clone
// semantics), and sanitizer builds, which therefore exercise only the
// default clone. Under ThreadSanitizer the IFUNC resolvers would run
// during relocation, before the TSan runtime initialises, and an
// instrumented resolver segfaults there; dropping the clones keeps the
// kernels instrumented, so TSan sees every write they make.
#pragma once

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&        \
    !defined(__SANITIZE_THREAD__)
#define SKIPTRAIN_VEC_CLONES(...) \
  __attribute__((target_clones(__VA_ARGS__)))
#else
#define SKIPTRAIN_VEC_CLONES(...)
#endif
