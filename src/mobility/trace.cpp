#include "mobility/trace.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/parse.hpp"

namespace middlefl::mobility {

Trace::Trace(std::size_t num_devices, std::size_t num_edges)
    : num_devices_(num_devices), num_edges_(num_edges) {
  if (num_devices_ == 0 || num_edges_ == 0) {
    throw std::invalid_argument("Trace: devices and edges must be positive");
  }
  if (num_edges_ > kMaxEdges) {
    throw std::invalid_argument("Trace: " + std::to_string(num_edges_) +
                                " edges past the " +
                                std::to_string(kMaxEdges) +
                                " a cell can name");
  }
}

void Trace::append(const std::vector<std::size_t>& assignment) {
  if (assignment.size() != num_devices_) {
    throw std::invalid_argument("Trace::append: expected " +
                                std::to_string(num_devices_) +
                                " devices, got " +
                                std::to_string(assignment.size()));
  }
  for (std::size_t e : assignment) {
    if (e >= num_edges_) {
      throw std::out_of_range("Trace::append: edge " + std::to_string(e) +
                              " out of range");
    }
  }
  for (const std::size_t e : assignment) {
    table_.push_back(static_cast<EdgeId>(e));
  }
}

std::size_t Trace::edge_at(std::size_t step, std::size_t device) const {
  if (step >= num_steps() || device >= num_devices_) {
    throw std::out_of_range("Trace::edge_at: (step, device) out of range");
  }
  return table_[step * num_devices_ + device];
}

void Trace::save(std::ostream& out) const {
  out << "# middlefl-trace v1 devices=" << num_devices_
      << " edges=" << num_edges_ << " steps=" << num_steps() << "\n";
  for (std::size_t t = 0; t < num_steps(); ++t) {
    for (std::size_t m = 0; m < num_devices_; ++m) {
      out << t << ' ' << m << ' ' << table_[t * num_devices_ + m] << "\n";
    }
  }
}

void Trace::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Trace::save_file: cannot open " + path);
  save(out);
}

Trace Trace::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("Trace::load: empty input");
  }
  std::size_t devices = 0, edges = 0, steps = 0;
  {
    struct HeaderKey {
      std::string_view name;
      std::size_t* value;
      bool seen = false;
    };
    HeaderKey keys[] = {
        {"devices", &devices}, {"edges", &edges}, {"steps", &steps}};
    std::istringstream hs(line);
    std::string token;
    while (hs >> token) {
      const std::string_view field(token);
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string name(field.substr(0, eq));
      for (HeaderKey& key : keys) {
        if (name != key.name) continue;
        // A repeated key is an error, as in JSON specs and CLI flags.
        if (key.seen) {
          throw std::runtime_error("Trace::load: line 1: key '" + name +
                                   "' given twice");
        }
        key.seen = true;
        *key.value = util::parse_number<std::size_t>(
            field.substr(eq + 1), "Trace::load: line 1: " + name);
      }
    }
  }
  if (devices == 0 || edges == 0) {
    throw std::runtime_error("Trace::load: line 1: malformed header '" +
                             line + "'");
  }
  if (edges > kMaxEdges) {
    throw std::runtime_error("Trace::load: line 1: edges=" +
                             std::to_string(edges) + " past the " +
                             std::to_string(kMaxEdges) +
                             " a cell can name");
  }
  if (steps > std::numeric_limits<std::size_t>::max() / devices) {
    throw std::runtime_error("Trace::load: line 1: steps * devices overflows "
                             "in header '" + line + "'");
  }
  const std::size_t cells = steps * devices;

  // Records are buffered until the input has delivered exactly `cells` of
  // them, so a header cannot size the table beyond what its input holds.
  struct Record {
    std::size_t cell, edge, line;
  };
  std::vector<Record> records;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    const std::string where = "Trace::load: line " + std::to_string(++line_no);
    std::istringstream fields(line);
    std::string step_s, device_s, edge_s, extra;
    if (!(fields >> step_s)) continue;  // blank line
    if (!(fields >> device_s >> edge_s) || (fields >> extra)) {
      throw std::runtime_error(where + ": expected '<step> <device> <edge>', "
                               "got '" + line + "'");
    }
    const auto step = util::parse_number<std::size_t>(step_s, where + ": step");
    const auto device =
        util::parse_number<std::size_t>(device_s, where + ": device");
    const auto edge = util::parse_number<std::size_t>(edge_s, where + ": edge");
    if (step >= steps || device >= devices || edge >= edges) {
      throw std::runtime_error(where + ": record '" + line +
                               "' out of range");
    }
    if (records.size() == cells) {
      throw std::runtime_error(where + ": more than the header's " +
                               std::to_string(cells) + " records");
    }
    records.push_back(Record{step * devices + device, edge, line_no});
  }
  if (records.size() != cells) {
    throw std::runtime_error(
        "Trace::load: input ends at line " + std::to_string(line_no) +
        ": expected " + std::to_string(cells) + " records, got " +
        std::to_string(records.size()));
  }
  // Exactly `cells` records and no (step, device) twice: every cell is set.
  Trace trace(devices, edges);
  trace.table_.assign(cells, 0);
  std::vector<bool> set(cells, false);
  for (const Record& record : records) {
    if (set[record.cell]) {
      throw std::runtime_error(
          "Trace::load: line " + std::to_string(record.line) +
          ": duplicate record for step " +
          std::to_string(record.cell / devices) + " device " +
          std::to_string(record.cell % devices));
    }
    set[record.cell] = true;
    trace.table_[record.cell] = static_cast<EdgeId>(record.edge);
  }
  return trace;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Trace::load_file: cannot open " + path);
  return load(in);
}

Trace record_trace(MobilityModel& model, std::size_t steps) {
  model.reset();
  Trace trace(model.num_devices(), model.num_edges());
  trace.append(model.assignment());
  for (std::size_t t = 0; t < steps; ++t) {
    model.advance();
    trace.append(model.assignment());
  }
  model.reset();
  return trace;
}

TraceMobility::TraceMobility(Trace trace) : trace_(std::move(trace)) {
  if (trace_.num_steps() == 0) {
    throw std::invalid_argument("TraceMobility: empty trace");
  }
  load_step(0);
}

void TraceMobility::load_step(std::size_t step) {
  const std::size_t bounded = std::min(step, trace_.num_steps() - 1);
  const bool diff = current_.size() == trace_.num_devices();
  movers_.clear();
  current_.resize(trace_.num_devices());
  for (std::size_t m = 0; m < current_.size(); ++m) {
    const std::size_t edge = trace_.edge_at(bounded, m);
    if (diff && current_[m] != edge) movers_.push_back(m);
    current_[m] = edge;
  }
}

void TraceMobility::advance() {
  ++step_;
  load_step(step_);
}

void TraceMobility::reset() {
  step_ = 0;
  load_step(0);
  // Rewinding is not an advance: the delta computed against the pre-reset
  // assignment must not leak into the first step's membership patch.
  movers_.clear();
}

}  // namespace middlefl::mobility
