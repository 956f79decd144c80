// Umbrella header: the complete public API of the middlefl library.
//
// Downstream users can include this single header; the sub-headers remain
// individually includable for faster builds.
#pragma once

// Substrates, bottom-up.
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"

#include "obs/metrics_registry.hpp"
#include "obs/observability.hpp"
#include "obs/run_logger.hpp"
#include "obs/trace_recorder.hpp"

#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"

#include "tensor/blas.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_factory.hpp"
#include "nn/module.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"

#include "optim/adam.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/sampler.hpp"
#include "data/synthetic.hpp"

#include "mobility/markov_mobility.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"

#include "transport/compression.hpp"
#include "transport/link.hpp"
#include "transport/transport.hpp"

#include "comm/communicator.hpp"

// The paper's contribution.
#include "core/algorithms.hpp"
#include "core/comm_stats.hpp"
#include "core/convergence.hpp"
#include "core/entities.hpp"
#include "core/metrics.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"
#include "core/simulation.hpp"
