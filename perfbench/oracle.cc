#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// Cyclic Jacobi eigendecomposition of the symmetric n x n matrix `a`
/// (row-major, overwritten). Returns eigenvalues in descending order and
/// the matching unit eigenvectors as the rows of `vectors`.
void JacobiEigen(std::vector<double>& a, size_t n, std::vector<double>& values,
                 std::vector<double>& vectors) {
  std::vector<double> v(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;
  double scale = 0.0;
  for (double x : a) scale += x * x;
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) off += a[p * n + q] * a[p * n + q];
    }
    if (off <= 1e-30 * scale) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (apq == 0.0) continue;
        const double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < n; ++k) {  // A <- A J (columns p, q)
          const double akp = a[k * n + p];
          const double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (size_t k = 0; k < n; ++k) {  // A <- J^T A (rows p, q)
          const double apk = a[p * n + k];
          const double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (size_t k = 0; k < n; ++k) {  // V <- V J
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return a[x * n + x] > a[y * n + y];
  });
  values.assign(n, 0.0);
  vectors.assign(n * n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    values[r] = a[order[r] * n + order[r]];
    for (size_t k = 0; k < n; ++k) vectors[r * n + k] = v[k * n + order[r]];
  }
}

/// One schema's local model: mean, orthonormal components, l_k.
struct Model {
  std::vector<double> mean;
  std::vector<std::vector<double>> components;
  double range = 0.0;
  bool ambiguous = false;
};

double ReconstructionMse(const Model& model, const double* x, size_t dims,
                         std::vector<double>& scratch) {
  scratch.assign(model.mean.begin(), model.mean.end());
  for (const std::vector<double>& pc : model.components) {
    double z = 0.0;
    for (size_t c = 0; c < dims; ++c) z += (x[c] - model.mean[c]) * pc[c];
    for (size_t c = 0; c < dims; ++c) scratch[c] += z * pc[c];
  }
  double sum = 0.0;
  for (size_t c = 0; c < dims; ++c) {
    const double d = x[c] - scratch[c];
    sum += d * d;
  }
  return sum / static_cast<double>(dims);
}

Model FitModel(const OracleInput& in, const std::vector<size_t>& rows,
               double v) {
  const size_t n = rows.size();
  const size_t d = in.dims;
  Model model;
  model.mean.assign(d, 0.0);
  for (size_t r : rows) {
    for (size_t c = 0; c < d; ++c) model.mean[c] += in.signatures[r * d + c];
  }
  for (double& m : model.mean) m /= static_cast<double>(n);
  std::vector<double> centred(n * d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      centred[i * d + c] = in.signatures[rows[i] * d + c] - model.mean[c];
    }
  }
  std::vector<double> gram(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double sum = 0.0;
      for (size_t c = 0; c < d; ++c) sum += centred[i * d + c] * centred[j * d + c];
      gram[i * n + j] = sum;
      gram[j * n + i] = sum;
    }
  }
  std::vector<double> values, vectors;
  JacobiEigen(gram, n, values, vectors);

  // Singular values above the numerical rank, as explained-variance
  // ratios over that rank; the fewest leading components reaching v.
  std::vector<double> sv(n);
  for (size_t i = 0; i < n; ++i) sv[i] = std::sqrt(std::max(0.0, values[i]));
  const double s_max = n > 0 ? sv[0] : 0.0;
  size_t rank = 0;
  while (rank < n && sv[rank] > 1e-10 * std::max(1.0, s_max)) ++rank;
  if (rank == 0) rank = 1;
  double total = 0.0;
  for (size_t i = 0; i < rank; ++i) total += sv[i] * sv[i];
  size_t keep = rank;
  double cumulative = 0.0;
  for (size_t i = 0; i < rank; ++i) {
    cumulative += total > 0.0 ? sv[i] * sv[i] / total : 0.0;
    if (std::fabs(cumulative - v) < kBoundaryTolerance) model.ambiguous = true;
    if (cumulative >= v) {
      keep = i + 1;
      break;
    }
  }

  // Right singular vectors from the Gram eigenvectors: v_k = X^T u_k / s_k.
  for (size_t k = 0; k < keep; ++k) {
    std::vector<double> pc(d, 0.0);
    if (sv[k] > 0.0) {
      for (size_t i = 0; i < n; ++i) {
        const double w = vectors[k * n + i] / sv[k];
        for (size_t c = 0; c < d; ++c) pc[c] += w * centred[i * d + c];
      }
    }
    model.components.push_back(std::move(pc));
  }

  std::vector<double> scratch;
  for (size_t r : rows) {
    model.range = std::max(
        model.range,
        ReconstructionMse(model, &in.signatures[r * d], d, scratch));
  }
  return model;
}

}  // namespace

KeepOracle ComputeKeep(const OracleInput& input, double v) {
  std::vector<std::vector<size_t>> rows_of(input.num_schemas);
  for (size_t r = 0; r < input.rows; ++r) rows_of[input.schema[r]].push_back(r);
  std::vector<Model> models;
  KeepOracle out;
  for (int s = 0; s < input.num_schemas; ++s) {
    models.push_back(FitModel(input, rows_of[s], v));
    out.ambiguous_models += models.back().ambiguous;
  }
  std::vector<double> scratch;
  out.verdicts.assign(input.rows, Verdict::kPrune);
  for (size_t r = 0; r < input.rows; ++r) {
    bool surely = false;
    bool maybe = false;
    for (int s = 0; s < input.num_schemas && !surely; ++s) {
      if (s == input.schema[r]) continue;
      const double err = ReconstructionMse(
          models[s], &input.signatures[r * input.dims], input.dims, scratch);
      if (err <= models[s].range - kBoundaryTolerance) surely = true;
      if (err <= models[s].range + kBoundaryTolerance) maybe = true;
    }
    out.verdicts[r] = surely  ? Verdict::kKeep
                      : maybe ? Verdict::kBoundary
                              : Verdict::kPrune;
  }
  return out;
}

LinkageOracle ComputeLinkages(const OracleInput& input,
                              const std::vector<bool>& keep,
                              double threshold) {
  const size_t d = input.dims;
  std::vector<double> norm(input.rows, 0.0);
  for (size_t r = 0; r < input.rows; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < d; ++c) {
      sum += input.signatures[r * d + c] * input.signatures[r * d + c];
    }
    norm[r] = std::sqrt(sum);
  }
  LinkageOracle out;
  for (size_t i = 0; i < input.rows; ++i) {
    if (!keep[i]) continue;
    const double* a = &input.signatures[i * d];
    for (size_t j = i + 1; j < input.rows; ++j) {
      if (!keep[j] || input.schema[i] == input.schema[j] ||
          input.is_table[i] != input.is_table[j]) {
        continue;
      }
      ++out.candidates;
      const double* b = &input.signatures[j * d];
      double dot = 0.0;
      for (size_t c = 0; c < d; ++c) dot += a[c] * b[c];
      const double cosine =
          norm[i] == 0.0 || norm[j] == 0.0 ? 0.0 : dot / (norm[i] * norm[j]);
      if (std::fabs(cosine - threshold) <= kBoundaryTolerance) {
        out.boundary.emplace_back(i, j);
      } else if (cosine >= threshold) {
        out.pairs.emplace_back(i, j);
      }
    }
  }
  return out;
}

}  // namespace perfbench
