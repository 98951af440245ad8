#include "ops/filter.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"

namespace ca::ops {

FourierFilter::FourierFilter(const OpContext& ctx)
    : plan_(static_cast<std::size_t>(ctx.mesh->nx())),
      nx_(ctx.mesh->nx()),
      ny_(ctx.mesh->ny()),
      band_(ctx.params.filter_band),
      aspect_(static_cast<double>(ctx.mesh->nx()) /
              (2.0 * ctx.mesh->ny())) {
  sin_m_.resize(static_cast<std::size_t>(nx_ / 2) + 1);
  for (std::size_t m = 0; m < sin_m_.size(); ++m)
    sin_m_[m] = std::sin(util::kPi * static_cast<double>(m) /
                         static_cast<double>(nx_));
}

bool FourierFilter::row_active(int gj) const {
  const double theta = (gj + 0.5) * util::kPi / ny_;
  return theta < band_ || theta > util::kPi - band_;
}

template <typename T>
std::span<T> FourierFilter::acquire(std::vector<T>& buf,
                                    std::size_t n) const {
  if (n > buf.capacity())
    ++ws_.allocations;
  else
    ++ws_.reuses;
  buf.resize(n);
  return {buf.data(), n};
}

void FourierFilter::filter_line(std::span<double> line,
                                double sin_theta) const {
  const std::size_t n = static_cast<std::size_t>(nx_);
  auto spec = acquire(ws_.spec, n / 2 + 1);
  auto scratch = acquire(ws_.fft_scratch, plan_.scratch_size());
  plan_.forward(std::span<const double>(line.data(), n), spec, scratch);
  for (std::size_t m = 1; m <= n / 2; ++m)
    spec[m] *= std::min(1.0, sin_theta * aspect_ / sin_m_[m]);
  plan_.inverse(spec, line, scratch);
}

void FourierFilter::apply_local(const OpContext& ctx, state::State& s,
                                const mesh::Box& window) const {
  for (int j = window.j0; j < window.j1; ++j) {
    const int gj = ctx.gj(j);
    if (gj < 0 || gj >= ny_ || !row_active(gj)) continue;
    const double sc = ctx.sin_t(j);
    const double svv = ctx.sin_tv(j);
    for (int k = window.k0; k < window.k1; ++k) {
      filter_line(s.u().line(j, k), sc);
      if (svv > 1e-12) filter_line(s.v().line(j, k), svv);
      filter_line(s.phi().line(j, k), sc);
    }
    // psa line (2-D): stage a contiguous copy in the reusable row buffer.
    auto row = acquire(ws_.row, static_cast<std::size_t>(nx_));
    for (int i = 0; i < nx_; ++i)
      row[static_cast<std::size_t>(i)] = s.psa()(i, j);
    filter_line(row, sc);
    for (int i = 0; i < nx_; ++i)
      s.psa()(i, j) = row[static_cast<std::size_t>(i)];
  }
}

void FourierFilter::apply_distributed(const OpContext& ctx,
                                      comm::Context& comm_ctx,
                                      const comm::Communicator& line_x,
                                      state::State& s,
                                      const mesh::Box& window) const {
  const int lnx = s.lnx();
  const int px = line_x.size();
  // Collect the active (field, j, k) lines of this window.
  ws_.lines.clear();
  std::vector<LineRef>& lines = ws_.lines;
  for (int j = window.j0; j < window.j1; ++j) {
    const int gj = ctx.gj(j);
    if (gj < 0 || gj >= ny_ || !row_active(gj)) continue;
    const double sc = ctx.sin_t(j);
    const double svv = ctx.sin_tv(j);
    for (int k = window.k0; k < window.k1; ++k) {
      lines.push_back({0, j, k, sc});
      if (svv > 1e-12) lines.push_back({1, j, k, svv});
      lines.push_back({2, j, k, sc});
    }
    lines.push_back({3, j, 0, sc});
  }
  if (lines.empty()) {
    // Stay collective: peers with the same window also see no lines.
    return;
  }

  const std::size_t nlines = lines.size();
  auto local = acquire(ws_.local, nlines * static_cast<std::size_t>(lnx));
  auto value = [&](const LineRef& ref, int i) -> double& {
    switch (ref.field) {
      case 0:
        return s.u()(i, ref.j, ref.k);
      case 1:
        return s.v()(i, ref.j, ref.k);
      case 2:
        return s.phi()(i, ref.j, ref.k);
      default:
        return s.psa()(i, ref.j);
    }
  };
  for (std::size_t l = 0; l < nlines; ++l)
    for (int i = 0; i < lnx; ++i)
      local[l * static_cast<std::size_t>(lnx) +
            static_cast<std::size_t>(i)] = value(lines[l], i);

  auto gathered =
      acquire(ws_.gathered, local.size() * static_cast<std::size_t>(px));
  comm::allgather<double>(comm_ctx, line_x, local, gathered);

  // Reassemble each full line (rank blocks are contiguous in `gathered`).
  auto full = acquire(ws_.full, static_cast<std::size_t>(nx_));
  const int me = line_x.rank();
  for (std::size_t l = 0; l < nlines; ++l) {
    for (int r = 0; r < px; ++r) {
      const double* src = gathered.data() +
                          static_cast<std::size_t>(r) * local.size() +
                          l * static_cast<std::size_t>(lnx);
      for (int i = 0; i < lnx; ++i)
        full[static_cast<std::size_t>(r * lnx + i)] = src[i];
    }
    filter_line(full, lines[l].sin_theta);
    for (int i = 0; i < lnx; ++i)
      value(lines[l], i) = full[static_cast<std::size_t>(me * lnx + i)];
  }
}

}  // namespace ca::ops
