// Quickstart: factor a random matrix with the Greedy tiled algorithm,
// inspect the factors, and verify the decomposition numerically. Tall or
// square inputs factor as A = Q R; wide inputs route to A = L Q.
//
//   ./quickstart [m] [n] [nb]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/tiled_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

using namespace tiledqr;

int main(int argc, char** argv) {
  const std::int64_t m = argc > 1 ? std::atoll(argv[1]) : 640;
  const std::int64_t n = argc > 2 ? std::atoll(argv[2]) : 256;
  const int nb = argc > 3 ? std::atoi(argv[3]) : 64;

  const bool wide = m < n;
  std::printf("tiledqr quickstart: %s of a %lld x %lld matrix, nb = %d\n", wide ? "LQ" : "QR",
              (long long)m, (long long)n, nb);

  // 1. Build a random problem.
  auto a = random_matrix<double>(m, n, /*seed=*/42);

  // 2. Pick an algorithm. Greedy with TT kernels is the paper's recommended
  //    default: no tuning parameter, asymptotically optimal critical path.
  core::Options opt;
  opt.tree = trees::TreeConfig{trees::TreeKind::Greedy, trees::KernelFamily::TT, 1, 0};
  opt.nb = nb;
  opt.ib = std::min(32, nb);

  // 3. Factorize. The engine routes on shape: m >= n is QR, m < n is LQ
  //    (transpose duality on the reduction grid).
  auto qr = core::TiledQr<double>::factorize(a.view(), opt);
  std::printf("algorithm          : %s\n", opt.tree->name().c_str());
  std::printf("reduction grid     : %d x %d tiles%s\n", qr.plan().graph.p, qr.plan().graph.q,
              wide ? " (of A^H)" : "");
  std::printf("tasks in DAG       : %zu\n", qr.plan().graph.tasks.size());
  std::printf("critical path      : %ld units of nb^3/3 flops\n", qr.plan().critical_path);

  // 4. Verify: A = Q R (or A = L Q), the thin Q orthonormal, the triangular
  //    factor actually triangular.
  auto q = qr.q_thin();
  Matrix<double> prod(m, n);
  double tri_offband = 0.0;
  if (wide) {
    auto l = qr.l_factor();
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, l.view(), q.view(), 0.0, prod.view());
    // L is lower triangular: its strict upper triangle must be exactly zero.
    for (std::int64_t i = 0; i < l.rows(); ++i)
      for (std::int64_t j = i + 1; j < l.cols(); ++j)
        tri_offband = std::max(tri_offband, std::abs(l(i, j)));
  } else {
    auto r = qr.r_factor();
    blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, q.view(), r.view(), 0.0, prod.view());
    tri_offband = below_diagonal_max<double>(r.view());
  }
  double residual =
      difference_norm<double>(a.view(), prod.view()) / frobenius_norm<double>(a.view());
  double orth = orthogonality_error<double>(q.view());
  std::printf("||A - %s|| / ||A|| : %.3e\n", wide ? "LQ" : "QR", residual);
  std::printf("||I - Q Q^H||      : %.3e\n", orth);
  std::printf("%s off-band max     : %.3e\n", wide ? "L" : "R", tri_offband);

  const bool ok =
      residual < 1e-13 * double(n) && orth < 1e-13 * double(n) && tri_offband == 0.0;
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
