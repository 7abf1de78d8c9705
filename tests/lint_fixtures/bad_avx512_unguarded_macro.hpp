// fleda-lint-fixture: expect fp-contract
// Known-bad: the sanctioned macro name, but without the contraction
// guard — no optimize("fp-contract=off") and no contract pragma before
// it — so every body it marks may be fused.
#pragma once

#define FLEDA_TARGET_AVX512 __attribute__((target("avx512f")))
