// CSV serialization of run reports, and the checked file writer for report documents.

#ifndef SRC_METRICS_CSV_WRITER_H_
#define SRC_METRICS_CSV_WRITER_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/metrics/run_report.h"

namespace cgraph {

// One row per job plus a "total" row. Columns:
//   executor,job,iterations,vertex_computes,edge_traversals,push_updates,compute_units,
//   hit_bytes,mem_bytes,disk_bytes,modeled_compute,modeled_access,modeled_time,
//   wall_seconds
std::string RunReportToCsv(const RunReport& report, const CostModel& model);

// Writes `contents` to `path`, replacing the file; fails if it cannot be opened or
// fully written.
Status WriteTextFile(const std::string& path, std::string_view contents);

}  // namespace cgraph

#endif  // SRC_METRICS_CSV_WRITER_H_
