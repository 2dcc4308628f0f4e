// Factor-once solving for fault-injection campaigns.
//
// Every fault variant's MNA system is the nominal one with one element
// changed. A CampaignSparseContext solves the nominal circuit once on the
// sparse kernel and freezes its stamp plan (CSC pattern plus the slot each
// stamp lands in) and its symbolic analysis, both shared read-only by every
// worker. Structure is decided from the fault, not by rebuilding: a fault
// that keeps the nominal stamp stream (see keeps_stamp_stream) adopts the
// plan and the symbolic as they are, so its per-fault work is numeric refill
// and refactorisation only — the assemble-once / step-many shape of an MNA
// kit. Only a fault that changes the stream (an Open/Short turning a source
// or DC inductor into a resistor, a capacitor short, ...) derives its own
// plan: a deleted branch unknown reuses the untouched symbolic prefix, and
// anything else factors afresh.
//
// Results are accepted only behind a gate ladder — clean rung-0 convergence
// with iteration headroom, a full-system residual check against the exact
// faulted matrix, and the MCU brown-out knife edge — and the caller re-runs
// any declined fault on the naive dense path, so campaign output is
// byte-identical to a dense-only campaign.
//
// Thread-safety: a context is immutable after construction; workers solve
// concurrently against it, each with its own Workspace.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "decisive/sim/circuit.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"
#include "decisive/sim/sparse.hpp"

namespace decisive::sim {

/// Why one fast-path solve did (or did not) produce a result. Anything but
/// `Solved` means the caller must re-run the fault through the naive path.
enum class FastPathOutcome {
  Solved,         ///< converged and passed every gate
  Structural,     ///< faulted system is outside the context's contract
                  ///< (empty, grown, on a different node set, or not
                  ///< matching its plan's stamp stream)
  Conditioning,   ///< singular factorisation, fill gate or residual gate
  NotConverged,   ///< Newton did not converge with enough budget headroom
  NearThreshold,  ///< result lands on a classification knife edge (MCU supply
                  ///< at its brown-out boundary); naive path must decide
  Disabled,       ///< context unusable (nominal solve failed / trivial system)
};

std::string_view to_string(FastPathOutcome outcome) noexcept;

/// What an element stamps into the DC MNA matrix. Elements of one class
/// record the same coordinate stream between the same terminals, whatever
/// their value — so a fault that keeps an element's terminals and class
/// keeps the circuit's stamp stream.
enum class StampClass {
  Conductance,  ///< Resistor, Mcu, Switch, Diode: a node-pair conductance
  Branch,       ///< VSource, CurrentSensor, Inductor (a DC short): a branch unknown
  None,         ///< Capacitor (open at DC), ISource (RHS only), VoltageSensor
};

[[nodiscard]] StampClass dc_stamp_class(ElementKind kind) noexcept;

/// A circuit's frozen DC stamp plan: the CSC pattern of its matrix stamps,
/// the CSC slot of every recorded stamp in stamp order, and the pattern
/// fingerprint that keys the symbolic analysis.
struct StampPlan {
  sparse::Pattern pattern;
  std::vector<std::int32_t> slots;
  std::uint64_t fingerprint = 0;

  bool operator==(const StampPlan&) const = default;
};

/// Derives `circuit`'s DC stamp plan from scratch: one recording stamp pass,
/// then sort, deduplicate and hash. This is the per-fault work the campaign
/// context skips for faults that keep the nominal stamp stream.
[[nodiscard]] StampPlan build_stamp_plan(const Circuit& circuit, const SolveOptions& options);

/// The campaign's shared solve state: the nominal operating point (the warm
/// start of every fault), the nominal stamp plan and its symbolic analysis.
class CampaignSparseContext {
 public:
  /// Per-worker scratch: a stream-changing fault's own plan, the numeric
  /// values, the sparse factorisation, and the residual/RHS buffers. Opaque
  /// — everything in it is an implementation detail of the sim library.
  class Workspace {
   public:
    Workspace();
    ~Workspace();
    Workspace(Workspace&&) noexcept;
    Workspace& operator=(Workspace&&) noexcept;

   private:
    friend class CampaignSparseContext;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Solves the nominal circuit (plain Newton on the sparse kernel) and
  /// freezes its stamp plan and symbolic analysis. The analysis is paid
  /// once per campaign, so the context runs at every system dimension —
  /// `SolveOptions::sparse_min_dim` gates one-shot solves only. Unusable
  /// when sparse is disabled, the system is empty, or the nominal solve
  /// needed anything beyond a clean sparse Newton run.
  CampaignSparseContext(const Circuit& nominal, const SolveOptions& options);

  [[nodiscard]] bool usable() const noexcept { return usable_; }

  /// True when `faulted` (inject_fault of `fault` on the nominal circuit)
  /// keeps the nominal stamp stream: the same nodes and elements, so the
  /// same system dimension, and the faulted element keeps its terminals and
  /// its StampClass. Such a fault solves on nominal_plan() as it is.
  [[nodiscard]] bool keeps_stamp_stream(const Circuit& faulted, const Fault& fault) const;

  /// The nominal stamp plan shared by every fault that keeps the stream
  /// (empty when not usable()).
  [[nodiscard]] StampPlan nominal_plan() const;

  /// Attempts the fast solve of `faulted` (the result of inject_fault for
  /// `fault` on the nominal circuit). Returns the operating point when the
  /// solve converged and passed every gate; std::nullopt otherwise, with
  /// `outcome` naming the fallback reason. `diagnostics` is filled like
  /// try_dc_operating_point's on success.
  [[nodiscard]] std::optional<OperatingPoint> try_solve(const Circuit& faulted,
                                                        const Fault& fault, Workspace& ws,
                                                        SolveDiagnostics& diagnostics,
                                                        FastPathOutcome& outcome) const;

  /// The nominal operating point (valid when usable()).
  [[nodiscard]] const OperatingPoint& nominal_point() const noexcept { return nominal_point_; }

  ~CampaignSparseContext();
  CampaignSparseContext(CampaignSparseContext&&) noexcept;
  CampaignSparseContext& operator=(CampaignSparseContext&&) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  OperatingPoint nominal_point_;
  bool usable_ = false;
};

}  // namespace decisive::sim
