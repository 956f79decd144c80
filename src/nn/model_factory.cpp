#include "nn/model_factory.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace middlefl::nn {

std::string to_string(ModelArch arch) {
  switch (arch) {
    case ModelArch::kLogistic: return "logistic";
    case ModelArch::kMlp: return "mlp";
    case ModelArch::kMlp2: return "mlp2";
    case ModelArch::kCnn2: return "cnn2";
    case ModelArch::kCnn3: return "cnn3";
  }
  return "?";
}

ModelArch parse_model_arch(const std::string& name) {
  if (name == "logistic") return ModelArch::kLogistic;
  if (name == "mlp") return ModelArch::kMlp;
  if (name == "mlp2") return ModelArch::kMlp2;
  if (name == "cnn2") return ModelArch::kCnn2;
  if (name == "cnn3") return ModelArch::kCnn3;
  throw std::invalid_argument("unknown model arch '" + name + "'");
}

namespace {

void add_conv_block(Sequential& model, std::size_t in_ch, std::size_t out_ch,
                    bool pool) {
  model.add(std::make_unique<Conv2d>(Conv2dConfig{
      .in_channels = in_ch,
      .out_channels = out_ch,
      .padding = 1,
      .kernel = 3,
  }));
  model.add(std::make_unique<ReLU>());
  if (pool) model.add(std::make_unique<MaxPool2d>());
}

}  // namespace

std::unique_ptr<Sequential> build_model(const ModelSpec& spec,
                                        std::uint64_t seed) {
  if (spec.num_classes < 2) {
    throw std::invalid_argument("build_model: need at least 2 classes");
  }
  auto model = std::make_unique<Sequential>(spec.input_shape);
  switch (spec.arch) {
    case ModelArch::kLogistic: {
      model->add(std::make_unique<Flatten>());
      model->add(std::make_unique<Linear>(0, spec.num_classes));
      break;
    }
    case ModelArch::kMlp: {
      model->add(std::make_unique<Flatten>());
      model->add(std::make_unique<Linear>(0, spec.hidden));
      model->add(std::make_unique<ReLU>());
      model->add(std::make_unique<Linear>(spec.hidden, spec.num_classes));
      break;
    }
    case ModelArch::kMlp2: {
      const std::size_t second = std::max<std::size_t>(4, spec.hidden / 2);
      model->add(std::make_unique<Flatten>());
      model->add(std::make_unique<Linear>(0, spec.hidden));
      model->add(std::make_unique<ReLU>());
      model->add(std::make_unique<Linear>(spec.hidden, second));
      model->add(std::make_unique<ReLU>());
      model->add(std::make_unique<Linear>(second, spec.num_classes));
      break;
    }
    case ModelArch::kCnn2: {
      if (spec.input_shape.rank() != 3) {
        throw std::invalid_argument("build_model: conv archs need CHW input");
      }
      const std::size_t c = spec.base_channels;
      add_conv_block(*model, spec.input_shape.dim(0), c, /*pool=*/true);
      add_conv_block(*model, c, 2 * c, /*pool=*/true);
      model->add(std::make_unique<Flatten>());
      model->add(std::make_unique<Linear>(0, spec.hidden));
      model->add(std::make_unique<ReLU>());
      model->add(std::make_unique<Linear>(spec.hidden, spec.num_classes));
      break;
    }
    case ModelArch::kCnn3: {
      if (spec.input_shape.rank() != 3) {
        throw std::invalid_argument("build_model: conv archs need CHW input");
      }
      const std::size_t c = spec.base_channels;
      add_conv_block(*model, spec.input_shape.dim(0), c, /*pool=*/true);
      add_conv_block(*model, c, 2 * c, /*pool=*/true);
      add_conv_block(*model, 2 * c, 4 * c, /*pool=*/false);
      model->add(std::make_unique<Flatten>());
      model->add(std::make_unique<Linear>(0, spec.hidden));
      model->add(std::make_unique<ReLU>());
      model->add(std::make_unique<Linear>(spec.hidden, spec.num_classes));
      break;
    }
  }
  model->build(seed);
  return model;
}

}  // namespace middlefl::nn
