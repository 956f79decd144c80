// Builders for the model families used in the paper's evaluation.
//
// The paper trains MNIST/EMNIST on a CNN with 2 conv + 2 fully connected
// layers, and CIFAR10/SpeechCommands on 3 conv + 2 fc (Section 6.1.2). The
// factory also offers an MLP and a logistic-regression head: the MLP is the
// fast-scale stand-in used by the default bench configuration, and logistic
// regression satisfies the convexity assumptions of the Theorem-1 analysis
// exactly (useful for the theory bench and convergence tests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nn/sequential.hpp"

namespace middlefl::nn {

enum class ModelArch {
  kLogistic,  // single linear layer (convex; matches Assumptions 1-2)
  kMlp,       // flatten -> linear -> relu -> linear
  kMlp2,      // two hidden ReLU layers (hidden, hidden/2)
  kCnn2,      // 2 conv + 2 fc (paper: MNIST, EMNIST)
  kCnn3,      // 3 conv + 2 fc (paper: CIFAR10, SpeechCommands)
};

std::string to_string(ModelArch arch);
ModelArch parse_model_arch(const std::string& name);

struct ModelSpec {
  Shape input_shape{1, 16, 16};  // per-sample, CHW for conv archs
  std::size_t num_classes = 10;
  ModelArch arch = ModelArch::kCnn2;
  /// Width of the first hidden fully-connected layer.
  std::size_t hidden = 64;
  /// Channel count of the first conv layer; later convs double it.
  std::size_t base_channels = 8;
};

/// Constructs and builds (initializes) the model; ready for forward().
std::unique_ptr<Sequential> build_model(const ModelSpec& spec,
                                        std::uint64_t seed);

}  // namespace middlefl::nn
