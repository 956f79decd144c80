#include "transport/compression.hpp"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "util/parse.hpp"

namespace middlefl::transport {

std::size_t EncodedDelta::bytes() const noexcept {
  if (size == 0) return 0;
  switch (kind) {
    case CompressionKind::kNone:
      return size * sizeof(float);
    case CompressionKind::kTopK:
      return indices.size() * (sizeof(float) + sizeof(std::uint32_t));
    case CompressionKind::kQuant8:
      return size + sizeof(float);
  }
  return 0;
}

void encode_delta(std::span<const float> update,
                  const CompressionConfig& config, EncodedDelta& out) {
  const std::size_t n = update.size();
  out.kind = config.kind;
  out.size = n;
  out.scale = 0.0f;
  out.codes.clear();
  out.indices.clear();
  out.values.clear();
  switch (config.kind) {
    case CompressionKind::kNone: {
      out.values.assign(update.begin(), update.end());
      return;
    }
    case CompressionKind::kTopK: {
      // Written so NaN fails too: llround(NaN * n) would keep every
      // coordinate at 8 bytes each.
      if (!(config.top_k_fraction > 0.0 && config.top_k_fraction <= 1.0)) {
        throw std::invalid_argument(
            "encode_delta: top_k_fraction must be in (0, 1]");
      }
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(config.top_k_fraction * static_cast<double>(n))));
      const std::size_t keep = std::min(k, n);
      // Partial selection of the k largest magnitudes; ties broken by index
      // for determinism (same comparator as the historical wire path).
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (keep > 0 && keep < n) {
        std::nth_element(order.begin(), order.begin() + (keep - 1), order.end(),
                         [&update](std::size_t a, std::size_t b) {
                           const float ma = std::fabs(update[a]);
                           const float mb = std::fabs(update[b]);
                           return ma != mb ? ma > mb : a < b;
                         });
      }
      order.resize(keep);
      std::sort(order.begin(), order.end());
      out.indices.reserve(keep);
      out.values.reserve(keep);
      for (const std::size_t i : order) {
        out.indices.push_back(static_cast<std::uint32_t>(i));
        out.values.push_back(update[i]);
      }
      return;
    }
    case CompressionKind::kQuant8: {
      float max_mag = 0.0f;
      for (float v : update) max_mag = std::max(max_mag, std::fabs(v));
      out.codes.resize(n);
      if (max_mag == 0.0f) {
        std::fill(out.codes.begin(), out.codes.end(), std::int8_t{0});
        return;
      }
      const float scale = max_mag / 127.0f;
      out.scale = scale;
      for (std::size_t i = 0; i < n; ++i) {
        const auto q = static_cast<int>(std::lround(update[i] / scale));
        out.codes[i] = static_cast<std::int8_t>(std::clamp(q, -127, 127));
      }
      return;
    }
  }
  throw std::logic_error("encode_delta: unhandled kind");
}

void decode_delta_into(const EncodedDelta& delta, std::span<float> out) {
  if (out.size() != delta.size) {
    throw std::invalid_argument("decode_delta_into: size mismatch");
  }
  switch (delta.kind) {
    case CompressionKind::kNone: {
      std::copy(delta.values.begin(), delta.values.end(), out.begin());
      return;
    }
    case CompressionKind::kTopK: {
      std::fill(out.begin(), out.end(), 0.0f);
      for (std::size_t i = 0; i < delta.indices.size(); ++i) {
        out[delta.indices[i]] = delta.values[i];
      }
      return;
    }
    case CompressionKind::kQuant8: {
      const float scale = delta.scale;
      for (std::size_t i = 0; i < delta.size; ++i) {
        out[i] = static_cast<float>(delta.codes[i]) * scale;
      }
      return;
    }
  }
  throw std::logic_error("decode_delta_into: unhandled kind");
}

CompressedUpdate compress_update(std::span<const float> update,
                                 const CompressionConfig& config) {
  EncodedDelta encoded;
  encode_delta(update, config, encoded);
  CompressedUpdate out;
  out.reconstruction.resize(update.size());
  decode_delta_into(encoded, out.reconstruction);
  out.bytes = encoded.bytes();
  return out;
}

CompressedUpdate compress_model(std::span<const float> model,
                                std::span<const float> reference,
                                const CompressionConfig& config) {
  if (model.size() != reference.size()) {
    throw std::invalid_argument("compress_model: size mismatch");
  }
  std::vector<float> delta(model.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = model[i] - reference[i];
  }
  CompressedUpdate out = compress_update(delta, config);
  for (std::size_t i = 0; i < out.reconstruction.size(); ++i) {
    out.reconstruction[i] += reference[i];
  }
  return out;
}

CompressionConfig parse_compression(const std::string& spec) {
  CompressionConfig config;
  if (spec.empty() || spec == "none") {
    config.kind = CompressionKind::kNone;
    return config;
  }
  if (spec == "q8" || spec == "quant8") {
    config.kind = CompressionKind::kQuant8;
    return config;
  }
  if (spec.rfind("topk", 0) == 0) {
    config.kind = CompressionKind::kTopK;
    if (spec.size() > 4) {
      if (spec[4] != ':') {
        throw std::invalid_argument("parse_compression: expected topk:<fraction>, got '" +
                                    spec + "'");
      }
      try {
        config.top_k_fraction =
            util::parse_number<double>(std::string_view(spec).substr(5),
                                       "parse_compression '" + spec + "'");
      } catch (const std::runtime_error& e) {
        throw std::invalid_argument(e.what());
      }
    }
    if (!(config.top_k_fraction > 0.0 && config.top_k_fraction <= 1.0)) {
      throw std::invalid_argument("parse_compression '" + spec +
                                  "': top-k fraction must be in (0, 1]");
    }
    return config;
  }
  throw std::invalid_argument(
      "parse_compression: unknown spec '" + spec +
      "' (expected none, topk:<fraction> or q8)");
}

std::string to_string(const CompressionConfig& config) {
  switch (config.kind) {
    case CompressionKind::kNone:
      return "none";
    case CompressionKind::kTopK:
      return "topk:" + std::to_string(config.top_k_fraction);
    case CompressionKind::kQuant8:
      return "q8";
  }
  return "unknown";
}

}  // namespace middlefl::transport
