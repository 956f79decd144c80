#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace middlefl::nn {

Sequential::Sequential(Shape input_shape)
    : input_shape_(std::move(input_shape)) {}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (built_) {
    throw std::logic_error("Sequential::add: model already built");
  }
  if (layer == nullptr) {
    throw std::invalid_argument("Sequential::add: null layer");
  }
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::build(std::uint64_t seed) {
  if (built_) throw std::logic_error("Sequential::build: already built");
  if (layers_.empty()) {
    throw std::logic_error("Sequential::build: no layers");
  }

  Shape shape = input_shape_;
  std::size_t total = 0;
  offsets_.clear();
  first_param_layer_ = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    shape = layers_[i]->build(shape);
    offsets_.push_back(total);
    total += layers_[i]->param_count();
    if (first_param_layer_ == layers_.size() &&
        layers_[i]->param_count() > 0) {
      first_param_layer_ = i;
    }
  }
  output_shape_ = shape;

  params_.assign(total, 0.0f);
  grads_.assign(total, 0.0f);

  parallel::Xoshiro256 init_rng(seed);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::size_t count = layers_[i]->param_count();
    layers_[i]->bind(std::span<float>(params_).subspan(offsets_[i], count),
                     std::span<float>(grads_).subspan(offsets_[i], count));
    layers_[i]->init_params(init_rng);
  }

  // Resolve Linear/Conv2d -> ReLU pairs for epilogue fusion in forward().
  fusion_.assign(layers_.size(), FusionSlot{});
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    auto* relu = dynamic_cast<ReLU*>(layers_[i + 1].get());
    if (relu == nullptr) continue;
    if (auto* linear = dynamic_cast<Linear*>(layers_[i].get())) {
      fusion_[i] = FusionSlot{linear, nullptr, relu};
    } else if (auto* conv = dynamic_cast<Conv2d*>(layers_[i].get())) {
      fusion_[i] = FusionSlot{nullptr, conv, relu};
    }
  }
  // Resolve ReLU -> MaxPool2d pairs for the pool's folded ReLU backward.
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    auto* pool = dynamic_cast<MaxPool2d*>(layers_[i].get());
    if (pool == nullptr ||
        dynamic_cast<ReLU*>(layers_[i - 1].get()) == nullptr) {
      continue;
    }
    fusion_[i].pool = pool;
    if (i >= 2) fusion_[i - 2].mask = false;
  }
  built_ = true;
}

const Shape& Sequential::output_shape() const {
  if (!built_) throw std::logic_error("Sequential: not built");
  return output_shape_;
}

void Sequential::set_parameters(std::span<const float> values) {
  if (values.size() != params_.size()) {
    throw std::invalid_argument("Sequential::set_parameters: size mismatch");
  }
  std::copy(values.begin(), values.end(), params_.begin());
}

void Sequential::zero_grad() noexcept {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

const Tensor& Sequential::forward(const Tensor& batch, bool training) {
  if (!built_) throw std::logic_error("Sequential::forward: not built");
  if (batch.rank() == 0 ||
      batch.numel() != batch.dim(0) * input_shape_.numel()) {
    throw std::invalid_argument("Sequential::forward: batch shape " +
                                batch.shape().to_string() +
                                " incompatible with input shape " +
                                input_shape_.to_string());
  }
  activations_.resize(layers_.size());
  // Only layer 0's backward reads the model input, and backward() calls
  // it only when layer 0 has parameters.
  if (training && first_param_layer_ == 0) input_copy_ = batch;
  have_training_forward_ = training;

  const Tensor* current = &batch;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const FusionSlot& fuse = fusion_[i];
    if (fuse.relu != nullptr) {
      // Fused pair: the producer writes post-ReLU values directly into the
      // ReLU's activation slot and fills its mask; the ReLU layer itself is
      // skipped. Its nominal input slot (activations_[i]) stays stale,
      // which is safe: ReLU::backward reads only grad_output + mask, and a
      // pool's folded ReLU backward the ReLU's and the pool's outputs.
      Tensor& out = activations_[i + 1];
      if (fuse.linear != nullptr) {
        fuse.linear->forward_fused(*current, out, training, *fuse.relu);
      } else {
        fuse.conv->forward_fused(*current, out, training,
                                 fuse.mask ? fuse.relu : nullptr);
      }
      current = &out;
      ++i;
    } else {
      layers_[i]->forward(*current, activations_[i], training);
      current = &activations_[i];
    }
  }
  return activations_.back();
}

void Sequential::backward(const Tensor& grad_output) {
  if (!have_training_forward_) {
    throw std::logic_error(
        "Sequential::backward: requires a preceding forward(training=true)");
  }
  if (grad_output.shape() != activations_.back().shape()) {
    throw std::invalid_argument("Sequential::backward: grad shape " +
                                grad_output.shape().to_string() +
                                " does not match output " +
                                activations_.back().shape().to_string());
  }
  // Ping-pong between two persistent scratch tensors: each layer reads the
  // incoming gradient from one and writes its grad_input into the other.
  // The last layer reads grad_output directly, so no copy is made. The
  // sweep ends at the first layer with parameters, which gets no
  // grad_input: nothing reads the gradient of the model input. A fused
  // ReLU -> MaxPool2d pair is one step: neither layer has parameters, so
  // the ReLU is never that first layer and its input gradient is read.
  const Tensor* grad = &grad_output;
  std::size_t parity = 0;
  for (std::size_t i = layers_.size(); i-- > first_param_layer_;) {
    Tensor* grad_prev =
        i == first_param_layer_ ? nullptr : &grad_scratch_[parity];
    if (fusion_[i].pool != nullptr) {
      fusion_[i].pool->backward_relu(activations_[i - 1], activations_[i],
                                     *grad, grad_prev);
      --i;
    } else {
      const Tensor& layer_input = i == 0 ? input_copy_ : activations_[i - 1];
      layers_[i]->backward(layer_input, *grad, grad_prev);
    }
    grad = grad_prev;
    parity ^= 1;
  }
  have_training_forward_ = false;
}

void Sequential::predict(const Tensor& batch, std::span<std::int32_t> out) {
  const std::size_t rows = batch.rank() == 0 ? 0 : batch.dim(0);
  if (out.size() != rows) {
    throw std::invalid_argument("Sequential::predict: out size " +
                                std::to_string(out.size()) +
                                " != batch rows " + std::to_string(rows));
  }
  const Tensor& logits = forward(batch, /*training=*/false);
  const std::size_t classes = logits.numel() / rows;
  const std::span<const float> values = logits.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> row = values.subspan(r * classes, classes);
    out[r] = static_cast<std::int32_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
}

std::unique_ptr<Sequential> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>(input_shape_);
  for (const auto& layer : layers_) {
    copy->add(layer->clone());
  }
  if (built_) {
    copy->build(0);  // seed irrelevant: parameters are overwritten next
    copy->set_parameters(params_);
  }
  return copy;
}

std::string Sequential::summary() const {
  std::ostringstream out;
  out << "Sequential[in=" << input_shape_.to_string();
  for (const auto& layer : layers_) {
    out << " -> " << layer->name();
  }
  if (built_) {
    out << " | params=" << params_.size();
  }
  out << "]";
  return out.str();
}

}  // namespace middlefl::nn
