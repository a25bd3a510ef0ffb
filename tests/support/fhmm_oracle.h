// Reference decoder for the factored Viterbi in `ml::FactorialHmm::decode`
// (tests/hmm_test.cpp, tests/nilm_test.cpp and bench/fhmm_decode).
#pragma once

#include <span>

#include "ml/fhmm.h"

namespace pmiot::oracle {

/// Naive joint Viterbi over the model's K joint states, O(T * K^2): for
/// each successor it scans every predecessor in ascending joint-id order
/// with a strict `>`, so the lowest id wins ties, and a joint log
/// transition is the per-chain logs (floored at 1e-9) summed in chain
/// order. The K x K joint table is precomputed only up to K = 2048 (32
/// MiB); past that the terms are summed on the fly. Returns the path
/// `decode` must reproduce; log-likelihoods agree up to summation order.
/// Requires a non-empty trace. Records no `obs` metric.
ml::FhmmDecoding decode_naive(const ml::FactorialHmm& model,
                              std::span<const double> aggregate);

}  // namespace pmiot::oracle
