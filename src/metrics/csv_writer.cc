#include "src/metrics/csv_writer.h"

#include <fstream>
#include <sstream>

namespace cgraph {
namespace {

void AppendJobRow(std::ostringstream& out, const std::string& executor, const JobStats& job,
                  const CostModel& model, uint32_t workers) {
  out << executor << ',' << job.job_name << ',' << job.iterations << ','
      << job.vertex_computes << ',' << job.edge_traversals << ',' << job.push_updates << ','
      << job.compute_units << ',' << job.charge.hit_bytes << ',' << job.charge.mem_bytes << ','
      << job.charge.disk_bytes << ',' << job.ModeledComputeTime(model, workers) << ','
      << job.ModeledAccessTime(model, workers) << ',' << job.ModeledTime(model, workers) << ','
      << job.wall_seconds << '\n';
}

}  // namespace

std::string RunReportToCsv(const RunReport& report, const CostModel& model) {
  std::ostringstream out;
  out << "executor,job,iterations,vertex_computes,edge_traversals,push_updates,"
         "compute_units,hit_bytes,mem_bytes,disk_bytes,modeled_compute,modeled_access,"
         "modeled_time,wall_seconds\n";
  for (const JobStats& job : report.jobs) {
    AppendJobRow(out, report.executor_name, job, model, report.workers);
  }
  AppendJobRow(out, report.executor_name, report.Total(), model, report.workers);
  return out.str();
}

Status WriteTextFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status::Internal("write failed for " + path);
  }
  return Status::Ok();
}

}  // namespace cgraph
