#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/parse.hpp"

namespace middlefl::nn {
namespace {

/// The fingerprint covers layer names and sizes but not parameter values.
std::string architecture_description(const Sequential& model) {
  std::ostringstream out;
  out << model.input_shape().to_string();
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    out << '|' << model.layer(i).name();
  }
  return out.str();
}

}  // namespace

std::uint64_t architecture_fingerprint(const Sequential& model) {
  const std::string desc = architecture_description(model);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit
  for (unsigned char c : desc) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void save_model(const Sequential& model, std::ostream& out) {
  if (!model.built()) {
    throw std::invalid_argument("save_model: model must be built");
  }
  out << "middlefl-model v1 params=" << model.param_count()
      << " arch=" << architecture_fingerprint(model) << "\n";
  const auto params = model.parameters();
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(params.size() * sizeof(float)));
  if (!out) throw std::runtime_error("save_model: write failed");
}

void save_model_file(const Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(model, out);
}

void load_model(Sequential& model, std::istream& in) {
  if (!model.built()) {
    throw std::invalid_argument("load_model: model must be built");
  }
  std::string header;
  if (!std::getline(in, header)) {
    throw std::runtime_error("load_model: missing header");
  }
  std::size_t params = 0;
  std::uint64_t arch = 0;
  {
    std::istringstream hs(header);
    std::string magic, version, token;
    hs >> magic >> version;
    if (magic != "middlefl-model" || version != "v1") {
      throw std::runtime_error("load_model: bad magic '" + header + "'");
    }
    while (hs >> token) {
      const std::string_view field(token);
      if (field.starts_with("params=")) {
        params = util::parse_number<std::size_t>(field.substr(7),
                                                 "load_model: line 1: params");
      } else if (field.starts_with("arch=")) {
        arch = util::parse_number<std::uint64_t>(field.substr(5),
                                                 "load_model: line 1: arch");
      }
    }
  }
  if (params != model.param_count()) {
    throw std::runtime_error(
        "load_model: checkpoint has " + std::to_string(params) +
        " parameters, model has " + std::to_string(model.param_count()));
  }
  if (arch != architecture_fingerprint(model)) {
    throw std::runtime_error(
        "load_model: architecture fingerprint mismatch (checkpoint was saved "
        "from a different model structure)");
  }
  std::vector<float> values(params);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(params * sizeof(float)));
  if (in.gcount() !=
      static_cast<std::streamsize>(params * sizeof(float))) {
    throw std::runtime_error("load_model: truncated parameter block");
  }
  model.set_parameters(values);
}

void load_model_file(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
  load_model(model, in);
}

}  // namespace middlefl::nn
