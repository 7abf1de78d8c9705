// Thread-local scratch buffers for kernel intermediates (padded images,
// conv output blocks, and the packed GEMM panels). Convolution
// layers need multi-MB temporaries per call; allocating them fresh each
// step costs more in page faults and zero-fill than the math itself.
// Buffers persist per thread and per slot, growing monotonically.
#pragma once

#include <cstddef>
#include <vector>

namespace fleda {

enum class ScratchSlot : int {
  kCols = 0,        // a padded sample (conv lowering)
  kConvBlock = 1,   // a channel group's padded block (direct conv dW),
                    // or a phase's output block (conv adjoint)
  kPackA = 2,       // packed A micro-panels (gemm_packed)
  kPackB = 3,       // packed B panel block (gemm_packed), or a weight
                    // gradient's packed dy (conv_gemm_weight_grad)
};

inline constexpr int kNumScratchSlots = 4;

// Returns a thread-local float buffer of at least `n` elements for the
// given slot. Contents are unspecified — callers must fully overwrite
// (or explicitly zero) what they read.
float* thread_scratch(ScratchSlot slot, std::size_t n);

// Same, but the returned pointer is 64-byte aligned (cache-line /
// vector-register friendly — the packed GEMM panels want this so the
// compiler's vectorized loads never straddle lines).
float* thread_scratch_aligned(ScratchSlot slot, std::size_t n);

}  // namespace fleda
