#ifndef TRAJ2HASH_CORE_ENCODERS_H_
#define TRAJ2HASH_CORE_ENCODERS_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "embedding/grid_embedding.h"
#include "nn/layers.h"
#include "traj/grid.h"
#include "traj/trajectory.h"

namespace traj2hash::core {

/// Positions cached per encoder for inference (nn::PositionTable). Covers
/// every serving trip (the CLI caps trips at 24 points) with room to spare;
/// longer sequences compute their extra rows per call.
inline constexpr int kCachedPositions = 128;

/// Attention-based trajectory encoder (§IV-D): a 1-layer MLP lifts each
/// normalised GPS point to `dim`, sinusoidal positions are added, `m`
/// residual attention+MLP blocks mix the sequence, and a read-out summarises
/// it. The paper's lower-bound read-out takes the first token (Eq. 13);
/// Mean/CLS variants exist for the Fig. 4 study.
class GpsEncoder : public nn::Module {
 public:
  GpsEncoder(int dim, int num_blocks, int num_heads, ReadOut read_out,
             Rng& rng, bool use_layer_norm = false);

  /// normalized: Gaussian-normalised coordinates of the trajectory points.
  /// Returns the [1, dim] trajectory embedding h_l.
  nn::Tensor Forward(const std::vector<traj::Point>& normalized) const;

  /// Inference twin of Forward: writes h_l (dim floats) to `out`,
  /// bit-identical to Forward(normalized)'s value. Builds no tensor, reads
  /// the live parameter values and owns its scratch per call, so concurrent
  /// calls are safe. The last block computes only the row the
  /// first-token read-outs (kLowerBound, kCls) keep.
  void Embed(const std::vector<traj::Point>& normalized, float* out) const;

 private:
  int dim_;
  ReadOut read_out_;
  std::unique_ptr<nn::Linear> input_proj_;
  std::vector<std::unique_ptr<nn::EncoderBlock>> blocks_;
  nn::Tensor cls_;  // learnable CLS token; null unless read_out == kCls
  nn::PositionTable positions_;
};

/// Light-weight grid trajectory read-out (§IV-C, Eq. 8-9): provider
/// embeddings + positional encoding -> two-layer MLP -> mean pooling.
class GridChannelEncoder : public nn::Module {
 public:
  /// `representation` must outlive this encoder (typically owned by the
  /// Traj2Hash model). Its dim may differ from `dim`; the MLP adapts.
  GridChannelEncoder(const embedding::GridRepresentation* representation,
                     int dim, Rng& rng);

  /// Returns the [1, dim] grid-channel embedding h_g of a cell sequence.
  nn::Tensor Forward(const std::vector<traj::Cell>& cells) const;

  /// Inference twin of Forward: writes h_g (dim floats) to `out`, with the
  /// same guarantees as GpsEncoder::Embed.
  void Embed(const std::vector<traj::Cell>& cells, float* out) const;

 private:
  const embedding::GridRepresentation* representation_;
  int dim_;
  std::unique_ptr<nn::Mlp> mlp_;
  nn::PositionTable positions_;  // width representation_->dim()
};

}  // namespace traj2hash::core

#endif  // TRAJ2HASH_CORE_ENCODERS_H_
