// Scheduling-policy interface.
//
// A Scheduler embodies one of the evaluated request-serving policies
// (PROTEAN, INFless/Llama, Molecule (beta), Naive Slicing, GPUlet, ...).
// It controls the GPU sharing mode and initial geometry, whether node
// queues prioritize strict batches, where each batch executes, and any
// periodic reconfiguration behaviour.
#pragma once

#include <optional>
#include <string>

#include "cluster/config.h"
#include "gpu/engine.h"
#include "workload/batch.h"

namespace protean::cluster {

class WorkerNode;  // defined in node.h

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// GPU sharing mode applied to every slice.
  virtual gpu::SharingMode sharing_mode() const {
    return gpu::SharingMode::kMps;
  }

  /// Geometry each GPU starts with.
  virtual gpu::Geometry initial_geometry() const {
    return gpu::Geometry::full();
  }

  /// Whether node queues serve strict batches ahead of BE ones
  /// (Section 4.1 request reordering).
  virtual bool reorder_strict_first() const { return false; }

  /// Cluster-level routing this policy implies; nullopt uses the cluster
  /// config default. INFless/Llama-style schemes consolidate.
  virtual std::optional<DispatchPolicy> dispatch_policy() const {
    return std::nullopt;
  }

  /// Whether the dispatcher should be DAG-aware for workflow stage batches:
  /// prefer the predecessor stage's node (zero transfer hop) whenever its
  /// queue is within one hop cost of the least-loaded node, and split the
  /// end-to-end SLO budget across stages ESG-style. Only consulted when
  /// workflows are enabled; the default (false) is per-stage greedy.
  virtual bool pipeline_conscious() const { return false; }

  /// Chooses the slice `batch` should execute on, or nullptr to leave it
  /// queued. The returned slice must currently admit the JobSpec produced
  /// by make_job (the node re-checks defensively). A node does not ask
  /// again for a batch left queued until capacity on it may have grown
  /// (docs/scale.md, "Dispatch under backlog"), so place() must have no
  /// side effect beyond trace_placement, and a null result may only turn
  /// into a slice through a job completion or loss, a container boot, or
  /// a change of the slice set. Enqueues must never make it less
  /// restrictive.
  virtual gpu::Slice* place(const workload::Batch& batch,
                            WorkerNode& node) = 0;

  /// Builds the engine job for `batch` on `slice`. The default applies the
  /// model's RDF for the slice (Eq. 2); GPUlet-style policies additionally
  /// cap SM usage here.
  virtual gpu::JobSpec make_job(const workload::Batch& batch,
                                const gpu::Slice& slice, JobId job_id) const;

  /// Called every ClusterConfig::monitor_interval for each node, in node
  /// order. `reconfig_budget` is the number of additional GPUs that may
  /// begin reconfiguring this round (the ~30% cap); implementations that
  /// start one must decrement it.
  virtual void on_monitor(WorkerNode& node, int& reconfig_budget) {
    (void)node;
    (void)reconfig_budget;
  }
};

/// Emits one scheduler-decision record ("sched" instant, category sched) to
/// the node's tracer: which scheme looked at how many candidate slices for
/// `batch`, which slice (if any) it chose, and the policy's score for the
/// pick (η for PROTEAN, scheme-specific otherwise; 0 when the policy has no
/// score). A no-op when tracing is off — call it unconditionally from
/// place() implementations.
void trace_placement(WorkerNode& node, const workload::Batch& batch,
                     const char* scheme, std::size_t candidates,
                     const gpu::Slice* chosen, double score);

}  // namespace protean::cluster
