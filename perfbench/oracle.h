// Output oracle of the end-to-end benchmark: recomputes the paper's keep
// decisions (Algorithms 1 and 2) and the SIM linkages from the element
// signatures alone, with linear algebra written here rather than taken
// from the program, so a fault in the program's PCA, assessment or
// matcher cannot hide behind the same fault in its checker.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Element signatures in row-major order (`rows` x `dims`), with each
/// row's schema index and whether the element is a table.
struct OracleInput {
  std::vector<double> signatures;
  size_t rows = 0;
  size_t dims = 0;
  std::vector<int> schema;
  std::vector<bool> is_table;
  int num_schemas = 0;
};

/// Decisions within this distance of a threshold are not judged: the
/// program and the oracle may round either way there.
inline constexpr double kBoundaryTolerance = 1e-9;

enum class Verdict { kPrune = 0, kKeep = 1, kBoundary = 2 };

struct KeepOracle {
  std::vector<Verdict> verdicts;  ///< One per row.
  /// Schemas whose component count sits within kBoundaryTolerance of the
  /// explained-variance target, so the model itself is ambiguous.
  size_t ambiguous_models = 0;
};

/// Algorithm 1 per schema (PCA by Jacobi on the centred Gram matrix,
/// fewest components reaching explained variance `v`, l_k = largest
/// own-row reconstruction MSE), then Algorithm 2: keep a row iff some
/// foreign model reconstructs it within that model's l_k.
KeepOracle ComputeKeep(const OracleInput& input, double v);

struct LinkageOracle {
  /// Canonical (smaller row, larger row) pairs with cosine >= threshold.
  std::vector<std::pair<size_t, size_t>> pairs;
  /// Candidate pairs within kBoundaryTolerance of the threshold; they
  /// appear in neither `pairs` nor the comparison.
  std::vector<std::pair<size_t, size_t>> boundary;
  size_t candidates = 0;
};

/// Brute-force SIM: every pair of kept rows of different schemas and the
/// same element kind whose cosine similarity reaches `threshold`.
LinkageOracle ComputeLinkages(const OracleInput& input,
                              const std::vector<bool>& keep,
                              double threshold);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
