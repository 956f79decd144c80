#include "obs/run_logger.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace middlefl::obs {

RunLogger::RunLogger(const std::string& path) : owned_(path), out_(&owned_) {
  if (!owned_) {
    throw std::runtime_error("RunLogger: cannot write '" + path + "'");
  }
}

void RunLogger::log_step(const StepRecord& record) {
  std::ostream& out = *out_;
  out << "{\"kind\": \"step\", \"step\": " << record.step
      << ", \"synced\": " << (record.synced ? "true" : "false")
      << ", \"movers\": " << record.movers
      << ", \"measured_p\": " << json_number(record.measured_p)
      << ", \"selected\": " << record.selected
      << ", \"lost_downloads\": " << record.lost_downloads
      << ", \"blends\": " << record.blends
      << ", \"blend_weight_sum\": " << json_number(record.blend_weight_sum);
  if (record.synced) {
    out << ", \"contributing_edges\": " << record.contributing_edges;
  }
  out << ", \"materializations\": " << record.materializations
      << ", \"resident_peak\": " << record.resident_peak;
  out << ", \"step_wall_us\": " << json_number(record.step_wall_us);
  const StepPhaseUs& p = record.phase_us;
  out << ", \"phase_us\": {\"mobility\": " << json_number(p.mobility)
      << ", \"membership\": " << json_number(p.membership)
      << ", \"select\": " << json_number(p.select)
      << ", \"distribute\": " << json_number(p.distribute)
      << ", \"local_train\": " << json_number(p.local_train)
      << ", \"upload\": " << json_number(p.upload)
      << ", \"edge_aggregate\": " << json_number(p.edge_aggregate)
      << ", \"cloud_sync\": " << json_number(p.cloud_sync);
  out << "}, \"links\": {";
  for (std::size_t i = 0; i < record.links.size(); ++i) {
    const LinkDeltaRecord& link = record.links[i];
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(link.link)
        << "\": {\"transfers\": " << link.transfers
        << ", \"dropped\": " << link.dropped << ", \"bytes\": " << link.bytes
        << ", \"in_flight\": " << link.in_flight << "}";
  }
  out << "}}\n";
  ++records_;
}

void RunLogger::log_eval(const EvalRecord& record) {
  *out_ << "{\"kind\": \"eval\", \"step\": " << record.step
        << ", \"accuracy\": " << json_number(record.accuracy)
        << ", \"loss\": " << json_number(record.loss)
        << ", \"wall_us\": " << json_number(record.wall_us) << "}\n";
  ++records_;
}

void RunLogger::log_line(const std::string& line) {
  *out_ << line << "\n";
  ++records_;
}

void RunLogger::flush() { out_->flush(); }

}  // namespace middlefl::obs
