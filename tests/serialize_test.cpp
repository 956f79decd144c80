#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "nn/model_factory.hpp"
#include "nn/serialize.hpp"

namespace {

using middlefl::nn::architecture_fingerprint;
using middlefl::nn::build_model;
using middlefl::nn::load_model;
using middlefl::nn::ModelArch;
using middlefl::nn::ModelSpec;
using middlefl::nn::save_model;
using middlefl::tensor::Shape;

ModelSpec small_spec() {
  ModelSpec spec;
  spec.arch = ModelArch::kMlp;
  spec.input_shape = Shape{6};
  spec.num_classes = 3;
  spec.hidden = 8;
  return spec;
}

TEST(Serialize, RoundTripPreservesEveryParameter) {
  auto source = build_model(small_spec(), 11);
  std::stringstream buffer;
  save_model(*source, buffer);

  auto target = build_model(small_spec(), 99);  // different init
  load_model(*target, buffer);
  ASSERT_EQ(target->param_count(), source->param_count());
  for (std::size_t i = 0; i < source->param_count(); ++i) {
    EXPECT_EQ(target->parameters()[i], source->parameters()[i]);
  }
}

TEST(Serialize, FingerprintStableAcrossInits) {
  auto a = build_model(small_spec(), 1);
  auto b = build_model(small_spec(), 2);
  EXPECT_EQ(architecture_fingerprint(*a), architecture_fingerprint(*b));
}

TEST(Serialize, FingerprintDiffersAcrossArchitectures) {
  auto mlp = build_model(small_spec(), 1);
  auto spec = small_spec();
  spec.hidden = 16;
  auto wider = build_model(spec, 1);
  EXPECT_NE(architecture_fingerprint(*mlp), architecture_fingerprint(*wider));
}

TEST(Serialize, RejectsArchitectureMismatch) {
  auto source = build_model(small_spec(), 11);
  std::stringstream buffer;
  save_model(*source, buffer);

  // Same parameter count, different structure: swap hidden sizes so
  // 6->8->3 becomes... easiest is a logistic model with padded features; a
  // cleaner guaranteed-same-count twin is hard to build, so check that a
  // mismatched count ALSO fails with a clear error first:
  auto spec = small_spec();
  spec.hidden = 9;
  auto different = build_model(spec, 11);
  EXPECT_THROW(load_model(*different, buffer), std::runtime_error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  auto model = build_model(small_spec(), 11);
  std::stringstream garbage("not a checkpoint\n");
  EXPECT_THROW(load_model(*model, garbage), std::runtime_error);

  std::stringstream truncated;
  save_model(*model, truncated);
  std::string text = truncated.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_model(*model, half), std::runtime_error);

  std::stringstream empty;
  EXPECT_THROW(load_model(*model, empty), std::runtime_error);
}

/// The std::runtime_error message load_model throws for a checkpoint with
/// `header` and a full parameter block ("" when it loads).
std::string header_load_error(const std::string& header) {
  auto model = build_model(small_spec(), 11);
  std::stringstream in(header + "\n" +
                       std::string(model->param_count() * sizeof(float), '\0'));
  try {
    load_model(*model, in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Serialize, RejectsMalformedHeaderNumbers) {
  auto model = build_model(small_spec(), 11);
  const std::string params = std::to_string(model->param_count());
  const std::string arch = std::to_string(architecture_fingerprint(*model));
  const auto header = [](const std::string& p, const std::string& a) {
    return "middlefl-model v1 params=" + p + " arch=" + a;
  };
  EXPECT_EQ(header_load_error(header(params, arch)), "");
  // std::stoul read "-3" as 2^64 - 3 and "<n>abc" as n (so the checkpoint
  // loaded), and "abc" escaped as std::invalid_argument.
  const std::pair<std::string, const char*> bad[] = {
      {header("-3", arch), "line 1: params"},
      {header(params + "abc", arch), "line 1: params"},
      {header("abc", arch), "line 1: params"},
      {header(params, arch + "x"), "line 1: arch"},
      {header(params, "99999999999999999999999"), "line 1: arch"},
  };
  for (const auto& [text, where] : bad) {
    const std::string message = header_load_error(text);
    EXPECT_NE(message.find(where), std::string::npos)
        << text << " -> '" << message << "'";
  }
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = "/tmp/middlefl_serialize_test.bin";
  auto source = build_model(small_spec(), 21);
  middlefl::nn::save_model_file(*source, path);
  auto target = build_model(small_spec(), 22);
  middlefl::nn::load_model_file(*target, path);
  for (std::size_t i = 0; i < source->param_count(); ++i) {
    EXPECT_EQ(target->parameters()[i], source->parameters()[i]);
  }
  EXPECT_THROW(
      middlefl::nn::load_model_file(*target, "/nonexistent/dir/x.bin"),
      std::runtime_error);
}

TEST(Serialize, UnbuiltModelRejected) {
  middlefl::nn::Sequential model(Shape{4});
  std::stringstream buffer;
  EXPECT_THROW(save_model(model, buffer), std::invalid_argument);
  EXPECT_THROW(load_model(model, buffer), std::invalid_argument);
}

}  // namespace
