// Lossy compression of model payloads for simulated links.
//
// The simulator models compression as reconstruct(compress(delta)): the
// receiver aggregates the lossy reconstruction, and the byte counters
// record what the wire would have carried. Deltas (w_new - w_ref against a
// reference both endpoints know, e.g. the downloaded edge model) compress
// far better than raw weights, which is why the API takes the reference
// explicitly. Compression is a property of a link, not of the training
// loop, so it lives in the transport layer.
//
// The wire path (compress_update/compress_model) is a thin wrapper over the
// split encode_delta()/decode_delta_into() pair: EncodedDelta is the actual
// compressed representation (quantized codes, kept coordinates), so the
// encoder can be timed on its own and its buffers reused across calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace middlefl::transport {

enum class CompressionKind {
  kNone,   // full float32 payload
  kTopK,   // keep the k = fraction*n largest-magnitude entries
  kQuant8, // uniform symmetric 8-bit quantization
};

struct CompressionConfig {
  CompressionKind kind = CompressionKind::kNone;
  /// Fraction of coordinates kept by kTopK, in (0, 1].
  double top_k_fraction = 0.1;
};

struct CompressedUpdate {
  /// Lossy reconstruction of the update (same length as the input).
  std::vector<float> reconstruction;
  /// Simulated wire size of the compressed payload.
  std::size_t bytes = 0;
};

/// The compressed form of an update vector: what the wire would carry.
/// kNone keeps the raw values verbatim (decode is bitwise-exact), kTopK
/// keeps (index, value) pairs of the k largest magnitudes, kQuant8 keeps
/// one int8 code per coordinate plus the shared scale. Buffers are reused
/// across encode_delta() calls, so a reused EncodedDelta re-encodes without
/// heap allocation in the steady state.
struct EncodedDelta {
  CompressionKind kind = CompressionKind::kNone;
  /// Length of the encoded update vector.
  std::size_t size = 0;
  /// kQuant8 reconstruction scale (max magnitude / 127).
  float scale = 0.0f;
  /// kQuant8: one code per coordinate, in [-127, 127].
  std::vector<std::int8_t> codes;
  /// kTopK: indices of the kept coordinates (ascending).
  std::vector<std::uint32_t> indices;
  /// kTopK: kept values (aligned with `indices`); kNone: all values.
  std::vector<float> values;

  /// Simulated wire size: kNone = 4n, kTopK = 8k, kQuant8 = n + 4. Empty
  /// (size == 0) deltas cost nothing.
  std::size_t bytes() const noexcept;
};

/// Encodes `update` into `out` (buffers reused). kNone stores the values
/// verbatim, so encode->decode round-trips bitwise; kTopK/kQuant8 use
/// exactly the arithmetic of compress_update. Throws
/// std::invalid_argument on a kTopK fraction outside (0, 1] (NaN included).
void encode_delta(std::span<const float> update,
                  const CompressionConfig& config, EncodedDelta& out);

/// Decodes `delta` into `out` (out.size() must equal delta.size),
/// overwriting every element: the reconstruction of the encoded update.
void decode_delta_into(const EncodedDelta& delta, std::span<float> out);

/// Compresses and immediately reconstructs `update`; see CompressedUpdate.
/// Wire-size model: kNone = 4n; kTopK = 8k (float value + uint32 index per
/// kept coordinate, k >= 1); kQuant8 = n + 4 (one byte per coordinate plus
/// the scale).
CompressedUpdate compress_update(std::span<const float> update,
                                 const CompressionConfig& config);

/// Convenience: applies update compression to a full model given its
/// reference: returns ref + reconstruct(compress(model - ref)).
CompressedUpdate compress_model(std::span<const float> model,
                                std::span<const float> reference,
                                const CompressionConfig& config);

/// Parses a CLI compression spec: "none", "topk:<fraction>" (e.g.
/// "topk:0.1", the whole rest of the spec one number in (0, 1]) or "q8".
/// Throws std::invalid_argument naming the spec on anything else.
CompressionConfig parse_compression(const std::string& spec);

/// Inverse of parse_compression, for reports.
std::string to_string(const CompressionConfig& config);

}  // namespace middlefl::transport
