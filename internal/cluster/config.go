// Package cluster simulates the multi-GPU platforms the paper evaluates
// on. Workers run as goroutines exchanging real data through rendezvous
// collectives, while step-level collective schedules over a two-tier α–β
// topology advance a simulated clock — so convergence experiments see the
// exact bytes a real cluster would move, and performance experiments see
// the communication times those bytes would cost on the modeled
// interconnect.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"compso/internal/collective"
)

// ErrUnknownPlatform is returned (wrapped) by PlatformByName when no
// registered platform matches the requested name.
var ErrUnknownPlatform = errors.New("cluster: unknown platform")

// Config describes a platform: topology and link parameters.
type Config struct {
	// Name labels the platform in experiment output.
	Name string
	// GPUsPerNode is the number of GPUs sharing one node (and NIC).
	GPUsPerNode int
	// IntraBW is the per-GPU intra-node bandwidth in bytes/second
	// (NVLink).
	IntraBW float64
	// InterBW is the per-node network bandwidth in bytes/second shared by
	// the node's GPUs.
	InterBW float64
	// IntraLatency and InterLatency are per-message α terms in seconds.
	IntraLatency float64
	InterLatency float64
	// CongestionLog slows the inter-node links by this fraction per
	// doubling of the node count beyond one node (EngineFor scales the
	// NIC's β), modeling switch contention at scale, which the pure α–β
	// model misses and real all-gather micro-benchmarks show.
	CongestionLog float64
	// CollectiveLaunch is the fixed software cost of issuing one
	// collective operation (NCCL/MPI launch path), paid once per
	// collective regardless of size. It is what makes per-layer exchanges
	// of small layers expensive and layer aggregation worthwhile (§4.4).
	CollectiveLaunch float64
	// Collective selects the collective engine policy: "" or "auto"
	// autotunes the step-level algorithm per (collective, message size);
	// an algorithm name ("ring", "recursive-doubling", "binomial",
	// "hierarchical") forces it for the ops that implement it (other ops
	// fall back to autotuning).
	Collective string
}

const gbit = 1e9 / 8 // bytes/second per Gbit/s

// Platform1 models the paper's first cluster: 16 nodes of four NVLink-
// connected A100s on Slingshot-10 (100 Gbps per node).
func Platform1() Config {
	return Config{
		Name:             "Platform1 (Slingshot-10, 100 Gbps)",
		GPUsPerNode:      4,
		IntraBW:          300e9, // NVLink 3.0 effective per-GPU
		InterBW:          100 * gbit,
		IntraLatency:     2e-6,
		InterLatency:     5e-6,
		CongestionLog:    0.25,
		CollectiveLaunch: 5e-5,
	}
}

// Platform2 models the second cluster: the same GPU configuration on
// Slingshot-11 (200 Gbps per node).
func Platform2() Config {
	return Config{
		Name:             "Platform2 (Slingshot-11, 200 Gbps)",
		GPUsPerNode:      4,
		IntraBW:          300e9,
		InterBW:          200 * gbit,
		IntraLatency:     2e-6,
		InterLatency:     5e-6,
		CongestionLog:    0.25,
		CollectiveLaunch: 5e-5,
	}
}

// platformRegistry maps short platform names to constructors. Keys are the
// interconnect generations the paper evaluates.
var platformRegistry = map[string]func() Config{
	"slingshot10": Platform1,
	"slingshot11": Platform2,
}

// Platforms returns the registered platform names in sorted order.
func Platforms() []string {
	names := make([]string, 0, len(platformRegistry))
	for name := range platformRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PlatformByName returns the platform registered under name
// ("slingshot10" → Platform1, "slingshot11" → Platform2). Unknown names
// return an error wrapping ErrUnknownPlatform.
func PlatformByName(name string) (Config, error) {
	ctor, ok := platformRegistry[name]
	if !ok {
		return Config{}, fmt.Errorf("%w %q (have %v)", ErrUnknownPlatform, name, Platforms())
	}
	return ctor(), nil
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.GPUsPerNode <= 0 || c.IntraBW <= 0 || c.InterBW <= 0 {
		return fmt.Errorf("cluster: invalid config %+v", c)
	}
	if c.IntraLatency < 0 || c.InterLatency < 0 {
		return fmt.Errorf("cluster: negative latency in %+v", c)
	}
	if c.CollectiveLaunch < 0 {
		return fmt.Errorf("cluster: negative CollectiveLaunch %g", c.CollectiveLaunch)
	}
	if c.CongestionLog < 0 {
		return fmt.Errorf("cluster: negative CongestionLog %g", c.CongestionLog)
	}
	if !collective.ValidPolicy(c.Collective) {
		return fmt.Errorf("cluster: unknown Collective policy %q", c.Collective)
	}
	return nil
}

// EngineFor builds the step-level collective engine for a platform at
// world size p: the two-tier topology (per-GPU NVLink ports at IntraBW,
// per-node NICs at the full InterBW — contention between a node's GPUs
// emerges from NIC occupancy instead of a pre-divided rate). Switch
// contention is a property of the topology too: the inter-node β grows by
// CongestionLog per doubling of the node count, ⌈log₂ nodes⌉ doublings.
func EngineFor(cfg Config, p int) *collective.Engine {
	nodes := (p + cfg.GPUsPerNode - 1) / cfg.GPUsPerNode
	doublings := 0.0
	for n := 1; n < nodes; n <<= 1 {
		doublings++
	}
	topo := &collective.Topology{
		P:           p,
		GPUsPerNode: cfg.GPUsPerNode,
		IntraAlpha:  cfg.IntraLatency,
		IntraBeta:   1 / cfg.IntraBW,
		InterAlpha:  cfg.InterLatency,
		InterBeta:   (1 + float64(cfg.CongestionLog*doublings)) / cfg.InterBW,
		Launch:      cfg.CollectiveLaunch,
	}
	eng, err := collective.NewEngine(topo, cfg.Collective)
	if err != nil {
		panic(err) // unreachable after Validate
	}
	return eng
}
