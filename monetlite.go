// Package monetlite is a from-scratch Go reproduction of Boncz,
// Manegold and Kersten, "Database Architecture Optimized for the new
// Bottleneck: Memory Access" (VLDB 1999): the vertically decomposed
// (BAT) storage model, the multi-pass radix-cluster algorithm, the
// partitioned hash-join and radix-join built on it, the baseline join
// algorithms they are compared against, the paper's analytical
// main-memory cost models, and a deterministic simulation of the
// hierarchical memory system (L1/L2 caches + TLB) that stands in for
// the MIPS R10000 hardware event counters of the original study.
//
// The package is a facade over the internal implementation: it
// re-exports the types and operations a downstream user composes, in
// four groups —
//
//   - memory simulation: Machine profiles, NewSim, Stats;
//   - storage: Pairs ([OID,value] BATs), workload generators, the DSM
//     relational layer (Decompose, ItemTable, …);
//   - joins: RadixCluster, PartitionedHashJoin, RadixJoin, the
//     baselines, and the §3.4.4 strategy planner (NewPlan, PlanAuto,
//     PredictPlan, Execute), each on a configurable parallel engine
//     (Options);
//   - models & experiments: the T(s)/Tc/Tr/Th cost models and the
//     figure-regeneration harness in RunFigures.
//
// Every operator takes an optional *Sim; pass nil to run natively
// (for wall-clock benchmarking) or a Sim to obtain exact L1/L2/TLB
// miss counts and simulated elapsed time on a chosen machine profile.
package monetlite

import (
	"monetlite/internal/bat"
	"monetlite/internal/calibrate"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/experiments"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
	"monetlite/internal/scan"
	"monetlite/internal/workload"
)

// ---------------------------------------------------------------------
// Memory simulation.

// Machine is a simulated hardware profile: cache/TLB geometry plus
// calibrated per-event latencies and per-operation work constants.
type Machine = memsim.Machine

// CacheSpec describes one cache level's geometry.
type CacheSpec = memsim.CacheSpec

// TLBSpec describes a translation lookaside buffer.
type TLBSpec = memsim.TLBSpec

// Sim is a deterministic memory-hierarchy simulator; it produces the
// exact per-event counts the paper reads from hardware counters.
type Sim = memsim.Sim

// Stats is a snapshot of simulated event counters.
type Stats = memsim.Stats

// The machine profiles of the paper: Origin2000 is the §3.4
// experimental platform; Sun450, Ultra and SunLX complete the
// Figure-3 machine set; Modern is a 2020s extension profile.
var (
	Origin2000 = memsim.Origin2000
	Sun450     = memsim.Sun450
	Ultra      = memsim.Ultra
	SunLX      = memsim.SunLX
	Modern     = memsim.Modern
)

// Machines returns the Figure-3 machine set, newest first.
func Machines() []Machine { return memsim.Machines() }

// MachineByName resolves a profile by its Figure-3 legend name, the
// "modern" extension profile, or "host" — the calibrated profile of
// the running machine, loaded through the calibration-file search path
// (see CalibrationSearchPath).
func MachineByName(name string) (Machine, error) { return memsim.MachineByName(name) }

// ---------------------------------------------------------------------
// Host calibration: the paper's Calibrator (§3.4.3) reborn. Calibrate
// measures the real cache/TLB geometry and latencies of the machine
// executing it; the resulting profile, saved to the search path,
// upgrades every later MachineByName("host") — and with it the
// engine's planning decisions — from 1999's canned numbers to measured
// reality.

// CalibrateConfig sizes the calibration sweeps; use DefaultCalibration
// for full accuracy or QuickCalibration for CI smoke runs.
type CalibrateConfig = calibrate.Config

// CalibrationReport carries the raw measured curves behind a
// calibrated profile.
type CalibrationReport = calibrate.Report

// DefaultCalibration and QuickCalibration are the standard sweep
// configurations.
var (
	DefaultCalibration = calibrate.Default
	QuickCalibration   = calibrate.Quick
)

// Calibrate measures the running machine and returns its profile
// (named "host") with the raw evidence curves.
func Calibrate(cfg CalibrateConfig) (Machine, *CalibrationReport, error) {
	return calibrate.Host(cfg)
}

// CheckCalibration verifies the calibration sanity invariants on a
// machine profile (positive latencies, monotone by level, L1 ≤ L2).
func CheckCalibration(m Machine) error { return calibrate.Check(m) }

// SaveMachine persists a machine profile as deterministic JSON.
func SaveMachine(m Machine, path string) error { return memsim.SaveMachineFile(m, path) }

// LoadMachine reads and validates a machine profile saved by
// SaveMachine.
func LoadMachine(path string) (Machine, error) { return memsim.LoadMachineFile(path) }

// CalibrationSearchPath lists the file locations MachineByName("host")
// probes, in order: $MONETLITE_CALIBRATION, ./monetlite-host.json,
// then the per-user config directory.
func CalibrationSearchPath() []string { return memsim.HostSearchPath() }

// NewSim creates a simulator for a machine profile.
func NewSim(m Machine) (*Sim, error) { return memsim.New(m) }

// ---------------------------------------------------------------------
// Storage: BATs and workloads.

// Oid is a Monet object identifier.
type Oid = bat.Oid

// Pair is one 8-byte [OID,value] BUN (§3.4.1).
type Pair = bat.Pair

// Pairs is a BAT of fixed 8-byte BUNs, the experimental storage unit.
type Pairs = bat.Pairs

// NewPairs returns an unbound BAT with n zeroed BUNs.
func NewPairs(n int) *Pairs { return bat.NewPairs(n) }

// FromPairs wraps an existing BUN slice as a BAT.
func FromPairs(buns []Pair) *Pairs { return bat.FromPairs(buns) }

// UniquePairs builds the §3.4.1 experimental BAT: n BUNs with unique
// uniform random values in random order, deterministically from seed.
func UniquePairs(n int, seed uint64) *Pairs { return workload.UniquePairs(n, seed) }

// JoinInputs builds two join operands with identical unique value sets
// in independent random orders (join hit rate exactly one).
func JoinInputs(n int, seed uint64) (l, r *Pairs) { return workload.JoinInputs(n, seed) }

// ---------------------------------------------------------------------
// The radix algorithms and join baselines (§3.3).

// Clustered is a radix-clustered BAT with cluster boundary offsets.
type Clustered = core.Clustered

// JoinIndex is a join result: a BAT of [left OID, right OID] pairs.
type JoinIndex = core.JoinIndex

// Hash is the integer hash used for clustering and hash tables: a
// multiplier every cluster, build and probe loop applies inline. nil
// means identity (the paper's integer-key setup).
type Hash = hashtab.Hash

// MultHash is Knuth's multiplicative hash (the golden-ratio
// multiplier), for adversarial domains.
var MultHash Hash = hashtab.Mult

// RadixCluster clusters a BAT on the lower bits of the key hash in
// the given number of passes (Figure 6), on the engine opt configures.
func RadixCluster(sim *Sim, in *Pairs, bits, passes int, h Hash, opt Options) (*Clustered, error) {
	return core.RadixClusterOpts(sim, in, bits, passes, h, opt)
}

// PartitionedHashJoin radix-clusters both operands and hash-joins the
// matching cluster pairs (Figure 8), on the engine opt configures.
func PartitionedHashJoin(sim *Sim, l, r *Pairs, bits, passes int, h Hash, opt Options) (*JoinIndex, error) {
	return core.PartitionedHashJoinOpts(sim, l, r, bits, passes, h, opt)
}

// RadixJoin radix-clusters both operands finely and nested-loop joins
// the matching cluster pairs (Figure 8), on the engine opt configures.
func RadixJoin(sim *Sim, l, r *Pairs, bits, passes int, h Hash, opt Options) (*JoinIndex, error) {
	return core.RadixJoinOpts(sim, l, r, bits, passes, h, opt)
}

// SimpleHashJoin is the non-partitioned bucket-chained hash join
// baseline.
func SimpleHashJoin(sim *Sim, l, r *Pairs, h Hash) (*JoinIndex, error) {
	return core.SimpleHashJoin(sim, l, r, h)
}

// SortMergeJoin is the sort-both-then-merge baseline.
func SortMergeJoin(sim *Sim, l, r *Pairs) (*JoinIndex, error) {
	return core.SortMergeJoin(sim, l, r)
}

// OptimalPasses returns the §3.4.2 pass count for clustering on B
// bits: at most log2(TLB entries) bits per pass.
func OptimalPasses(bits int, m Machine) int { return core.OptimalPasses(bits, m) }

// ---------------------------------------------------------------------
// The parallel execution engine. After radix-clustering, every cluster
// pair joins independently, so the native join phase (and the
// clustering passes themselves) fan out over a bounded goroutine pool.
// RadixCluster, PartitionedHashJoin, RadixJoin and Execute take the
// engine configuration as their last argument. Results are
// byte-identical at every worker count; instrumented runs (sim != nil)
// always use the serial path, as the simulator models a single CPU.

// Options tunes the execution engine: Parallelism bounds the worker
// goroutines (0 = GOMAXPROCS, 1 = serial). The zero value runs native
// operators on all cores.
type Options = core.Options

// Serial returns Options that force the serial engine.
func Serial() Options { return core.Serial() }

// ---------------------------------------------------------------------
// Strategy planning (§3.4.4).

// Strategy enumerates the §3.4.4 join strategies.
type Strategy = core.Strategy

// The strategy set of Figures 12 and 13.
const (
	SimpleHash Strategy = core.SimpleHash
	SortMerge  Strategy = core.SortMerge
	PhashL2    Strategy = core.PhashL2
	PhashTLB   Strategy = core.PhashTLB
	PhashL1    Strategy = core.PhashL1
	Phash256   Strategy = core.Phash256
	PhashMin   Strategy = core.PhashMin
	Radix8     Strategy = core.Radix8
	RadixMin   Strategy = core.RadixMin
	Auto       Strategy = core.Auto
)

// Plan is a resolved join plan: strategy plus radix bits and passes.
type Plan = core.Plan

// NewPlan resolves a strategy for a cardinality on a machine; Auto
// picks the cheapest strategy by predicted cost.
func NewPlan(s Strategy, c int, m Machine) Plan { return core.NewPlan(s, c, m) }

// PlanAuto picks the model-predicted cheapest strategy — the role of
// a Monet query optimizer armed with the paper's cost models.
func PlanAuto(c int, m Machine) Plan { return core.PlanAuto(c, m) }

// PredictPlan returns the cost models' predicted breakdown of
// executing plan p at cardinality c on machine m: clustering both
// operands plus the join.
func PredictPlan(p Plan, c int, m Machine) Breakdown { return core.PredictPlan(p, c, m) }

// Execute runs a plan on two operands, on the engine opt configures.
// The baselines (simple hash, sort-merge) have no partitioned join
// phase to fan out and always run serially.
func Execute(sim *Sim, l, r *Pairs, p Plan, h Hash, opt Options) (*JoinIndex, error) {
	return core.ExecuteOpts(sim, l, r, p, h, opt)
}

// Strategies lists the concrete strategies in Figure-13 legend order.
func Strategies() []Strategy { return core.Strategies() }

// ---------------------------------------------------------------------
// Cost models (§2, §3.4) and the scan experiment.

// CostModel evaluates the paper's analytical formulas for a machine.
type CostModel = costmodel.Model

// Breakdown decomposes a predicted cost into CPU work and expected
// miss counts.
type Breakdown = costmodel.Breakdown

// NewCostModel returns the cost model for machine m.
func NewCostModel(m Machine) CostModel { return costmodel.New(m) }

// Residuals accumulates per-operator-kind predicted-vs-actual ratios
// from profiled runs (QueryResult.Profile.Residuals); feed the result
// to CostModel.WithResiduals so future predictions carry the learned
// corrections.
type Residuals = costmodel.Residuals

// NewResiduals returns an empty accumulator bound to a machine name.
func NewResiduals(machine string) *Residuals { return costmodel.NewResiduals(machine) }

// ScanResult is one point of the Figure-3 stride-scan experiment.
type ScanResult = scan.Result

// StrideScan runs the §2 scan experiment: iters one-byte reads at the
// given stride on a cold-cache simulator of machine m.
func StrideScan(m Machine, stride, iters int) (ScanResult, error) {
	return scan.Run(m, stride, iters)
}

// ScanIterations is the paper's iteration count (200,000).
const ScanIterations = scan.Iterations

// ---------------------------------------------------------------------
// Experiment harness.

// FigureConfig configures the figure-regeneration harness.
type FigureConfig = experiments.Config

// RunFigures regenerates every figure and ablation of the paper's
// evaluation with the given configuration.
func RunFigures(cfg FigureConfig) error { return experiments.All(cfg) }

// Individual figure runners, for selective regeneration.
var (
	Fig1  = experiments.Fig1
	Fig3  = experiments.Fig3
	Fig9  = experiments.Fig9
	Fig10 = experiments.Fig10
	Fig11 = experiments.Fig11
	Fig12 = experiments.Fig12
	Fig13 = experiments.Fig13

	SelAblation = experiments.SelAblation
	AggAblation = experiments.AggAblation

	// Extension ablations beyond the paper's figures: the §4
	// virtual-memory claim, key skew, the §2 prefetching argument, and
	// a modern-CPU profile.
	VMAblation       = experiments.VMAblation
	BitSplitAblation = experiments.BitSplitAblation
	SkewAblation     = experiments.SkewAblation
	PrefetchAblation = experiments.PrefetchAblation
	ModernAblation   = experiments.ModernAblation
)
