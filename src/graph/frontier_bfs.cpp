#include "graph/frontier_bfs.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace sntrust {

FrontierBfs::FrontierBfs(const Graph& g) : FrontierBfs(g, Options{}) {}

FrontierBfs::FrontierBfs(const Graph& g, const Options& options)
    : graph_(g), options_(options), epoch_seen_(g.num_vertices(), 0) {
  frontier_.reserve(g.num_vertices());
  next_frontier_.reserve(g.num_vertices());
  result_.distances.assign(g.num_vertices(), kUnreachable);
}

bool FrontierBfs::want_bottom_up(bool bottom_up) const {
  if (options_.alpha == 0) return false;
  if (bottom_up)  // stay until the frontier is small again
    return options_.beta != 0 &&
           frontier_.size() >= graph_.num_vertices() / options_.beta;
  return frontier_degree_ > unexplored_degree_ / options_.alpha;
}

void FrontierBfs::ensure_unvisited_list() {
  if (unvisited_valid_) return;
  unvisited_.clear();
  for (VertexId v = 0; v < graph_.num_vertices(); ++v)
    if (epoch_seen_[v] != epoch_) unvisited_.push_back(v);
  unvisited_valid_ = true;
}

void FrontierBfs::top_down_level(std::uint32_t depth) {
  next_frontier_.clear();
  frontier_degree_ = 0;
  const auto offsets = graph_.offsets();
  const auto targets = graph_.targets();
  for (const VertexId u : frontier_) {
    for (EdgeIndex i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId w = targets[i];
      if (epoch_seen_[w] != epoch_) {
        epoch_seen_[w] = epoch_;
        result_.distances[w] = depth + 1;
        next_frontier_.push_back(w);
        const EdgeIndex degree = graph_.degree_unchecked(w);
        frontier_degree_ += degree;
        unexplored_degree_ -= degree;
      }
    }
  }
}

void FrontierBfs::bottom_up_level(std::uint32_t depth) {
  next_frontier_.clear();
  frontier_degree_ = 0;
  std::size_t keep = 0;
  const auto offsets = graph_.offsets();
  const auto targets = graph_.targets();
  for (const VertexId v : unvisited_) {
    if (epoch_seen_[v] == epoch_) continue;  // claimed earlier: drop
    bool adjacent = false;
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = targets[i];
      // Frontier membership: visited AND at the current depth (newly
      // claimed vertices carry depth + 1, so they never match).
      if (epoch_seen_[w] == epoch_ && result_.distances[w] == depth) {
        adjacent = true;
        break;
      }
    }
    if (adjacent) {
      epoch_seen_[v] = epoch_;
      result_.distances[v] = depth + 1;
      next_frontier_.push_back(v);
      const EdgeIndex degree = graph_.degree_unchecked(v);
      frontier_degree_ += degree;
      unexplored_degree_ -= degree;
    } else {
      unvisited_[keep++] = v;
    }
  }
  unvisited_.resize(keep);
}

const BfsResult& FrontierBfs::run(VertexId source) {
  if (source >= graph_.num_vertices())
    throw std::out_of_range("FrontierBfs::run: source out of range");
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear markers and restart epochs
    std::fill(epoch_seen_.begin(), epoch_seen_.end(), 0);
    epoch_ = 1;
  }

  result_.source = source;
  result_.level_sizes.clear();
  result_.reached = 0;

  frontier_.assign(1, source);
  epoch_seen_[source] = epoch_;
  result_.distances[source] = 0;
  frontier_degree_ = graph_.degree_unchecked(source);
  unexplored_degree_ = graph_.targets().size() - frontier_degree_;
  unvisited_valid_ = false;

  // Local (non-static) handles: sweeps run BFS from pool workers.
  obs::Counter& top_down = obs::metrics_counter("bfs.top_down_levels");
  obs::Counter& bottom_up = obs::metrics_counter("bfs.bottom_up_levels");

  std::uint64_t reached = 1;
  std::uint32_t depth = 0;
  bool bottom_up_mode = false;
  while (!frontier_.empty()) {
    result_.level_sizes.push_back(frontier_.size());
    bottom_up_mode = want_bottom_up(bottom_up_mode);
    if (bottom_up_mode) {
      ensure_unvisited_list();
      bottom_up_level(depth);
      bottom_up.add(1);
    } else {
      top_down_level(depth);
      top_down.add(1);
    }
    reached += next_frontier_.size();
    frontier_.swap(next_frontier_);
    ++depth;
  }

  result_.reached = reached;
  result_.eccentricity =
      static_cast<std::uint32_t>(result_.level_sizes.size() - 1);
  // Mark unreached vertices lazily: distances[] still holds stale values
  // from previous runs for them, so fix them up only once per run.
  for (VertexId v = 0; v < graph_.num_vertices(); ++v)
    if (epoch_seen_[v] != epoch_) result_.distances[v] = kUnreachable;
  return result_;
}

}  // namespace sntrust
