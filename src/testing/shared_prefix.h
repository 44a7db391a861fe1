// The shared-prefix statement family used to measure how the optimizer
// scales with batch size (bench_mqo_scale) and to check Algorithm 1 against
// its from-scratch reference at those sizes (tests/alg1_reference_test).
//
// Statement i uses join core i % 12; the twelve cores have pairwise-distinct
// table signatures, and statements sharing a core differ in grouping column,
// aggregate and single-column range predicate, so every core yields a
// covering CSE (merged group-by + predicate hull).
#ifndef SUBSHARE_TESTING_SHARED_PREFIX_H_
#define SUBSHARE_TESTING_SHARED_PREFIX_H_

#include <string>

namespace subshare::testing {

constexpr int kSharedPrefixCores = 12;

// The first `statements` statements of the family, joined with "; ".
std::string SharedPrefixBatch(int statements);

}  // namespace subshare::testing

#endif  // SUBSHARE_TESTING_SHARED_PREFIX_H_
