#include "perf/report.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <ostream>

namespace ca::perf {

std::vector<PhaseSummary> summarize(const SimResult& result) {
  std::vector<PhaseSummary> rows;
  for (const util::Phase phase : result.phases()) {
    PhaseSummary row;
    row.phase = util::phase_name(phase);
    row.min_seconds = std::numeric_limits<double>::infinity();
    row.total = result.phase_total(phase);
    double sum = 0.0;
    for (const auto& r : result.ranks) {
      const double s = r.phases[phase].seconds;
      row.max_seconds = std::max(row.max_seconds, s);
      row.min_seconds = std::min(row.min_seconds, s);
      sum += s;
    }
    row.avg_seconds =
        result.ranks.empty() ? 0.0 : sum / static_cast<double>(result.ranks.size());
    row.imbalance =
        row.avg_seconds > 0.0 ? row.max_seconds / row.avg_seconds : 0.0;
    rows.push_back(row);
  }
  return rows;
}

void print_summary(std::ostream& out, const SimResult& result,
                   const std::string& title) {
  out << title << " (makespan " << std::scientific << std::setprecision(3)
      << result.makespan << " s, critical rank " << critical_rank(result)
      << ")\n";
  out << std::left << std::setw(14) << "phase" << std::right
      << std::setw(12) << "max [s]" << std::setw(12) << "avg [s]"
      << std::setw(8) << "imb" << std::setw(12) << "messages"
      << std::setw(12) << "MB" << std::setw(12) << "coll MB" << "\n";
  for (const auto& row : summarize(result)) {
    out << std::left << std::setw(14) << row.phase << std::right
        << std::scientific << std::setprecision(3) << std::setw(12)
        << row.max_seconds << std::setw(12) << row.avg_seconds
        << std::fixed << std::setprecision(2) << std::setw(8)
        << row.imbalance << std::setw(12) << row.total.p2p_messages
        << std::setprecision(1) << std::setw(12)
        << static_cast<double>(row.total.p2p_bytes) / 1e6 << std::setw(12)
        << static_cast<double>(row.total.collective_bytes) / 1e6 << "\n";
  }
}

void append_csv(std::ostream& out, const std::string& label,
                const SimResult& result) {
  if (out.tellp() == std::streampos(0)) {
    out << "label,phase,max_seconds,avg_seconds,imbalance,messages,bytes,"
           "collective_bytes\n";
  }
  for (const auto& row : summarize(result)) {
    out << label << ',' << row.phase << ',' << std::scientific
        << std::setprecision(6) << row.max_seconds << ','
        << row.avg_seconds << ',' << std::fixed << std::setprecision(4)
        << row.imbalance << ',' << row.total.p2p_messages << ','
        << row.total.p2p_bytes << ',' << row.total.collective_bytes << "\n";
  }
}

int critical_rank(const SimResult& result) {
  int best = -1;
  double t = -1.0;
  for (std::size_t r = 0; r < result.ranks.size(); ++r) {
    if (result.ranks[r].total_seconds > t) {
      t = result.ranks[r].total_seconds;
      best = static_cast<int>(r);
    }
  }
  return best;
}

}  // namespace ca::perf
