#include "ml/stats.hpp"

#include <algorithm>
#include <cmath>
#include <math.h>  // lgamma_r

namespace cen::ml {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = mean(v);
  double sum = 0.0;
  for (double x : v) sum += (x - m) * (x - m);
  return sum / static_cast<double>(v.size() - 1);
}

std::vector<double> ranks(const std::vector<double>& v) {
  std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> out(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = avg_rank;
    i = j + 1;
  }
  return out;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {
/// Two-sided p-value for a t statistic with df degrees of freedom, via the
/// regularized incomplete beta function (continued-fraction evaluation).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12, kFpMin = 1e-300;
  double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0, d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// ln|Γ(v)| without std::lgamma's write to the global `signgam`, a data
/// race when check workers compute statistics on several threads.
double log_gamma(double v) {
  int sign = 0;
  return ::lgamma_r(v, &sign);
}

double incbeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_beta = log_gamma(a + b) - log_gamma(a) - log_gamma(b);
  double front = std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * betacf(a, b, x) / a;
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;  // symmetry relation
}

double t_two_sided_p(double t, double df) {
  if (df <= 0.0) return 1.0;
  double x = df / (df + t * t);
  return incbeta(df / 2.0, 0.5, x);
}
}  // namespace

Correlation spearman(const std::vector<double>& x, const std::vector<double>& y) {
  Correlation c;
  if (x.size() != y.size() || x.size() < 3) return c;
  c.rho = pearson(ranks(x), ranks(y));
  double n = static_cast<double>(x.size());
  if (std::fabs(c.rho) >= 1.0) {
    c.p_value = 0.0;
    return c;
  }
  double t = c.rho * std::sqrt((n - 2.0) / (1.0 - c.rho * c.rho));
  c.p_value = t_two_sided_p(t, n - 2.0);
  return c;
}

std::vector<std::size_t> kfold_assignment(std::size_t n, std::size_t k, Rng& rng) {
  std::vector<std::size_t> fold(n);
  std::vector<std::size_t> perm = rng.permutation(n);
  for (std::size_t i = 0; i < n; ++i) fold[perm[i]] = i % k;
  return fold;
}

}  // namespace cen::ml
