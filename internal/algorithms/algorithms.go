// Package algorithms is the engine registry: every checkpointing
// algorithm the drivers can run, by name. The mutable-checkpoint engine
// lives in internal/core; the comparison algorithms of the paper's §5 are
// the sub-packages here.
package algorithms

import (
	"fmt"

	"mutablecp/internal/algorithms/chandylamport"
	"mutablecp/internal/algorithms/elnozahy"
	"mutablecp/internal/algorithms/kootoueg"
	"mutablecp/internal/algorithms/logbased"
	"mutablecp/internal/algorithms/naive"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
)

// Registered algorithm names.
const (
	Mutable = "mutable"
	// MutableTargeted is the mutable algorithm with the §3.3.5 "update"
	// commit dissemination instead of the broadcast.
	MutableTargeted = "mutable-targeted"
	KooToueg        = "koo-toueg"
	Elnozahy        = "elnozahy"
	ChandyLamport   = "chandy-lamport"
	NaiveSimple     = "naive-simple"
	NaiveRevised    = "naive-revised"
	NaiveNoCSN      = "naive-nocsn"
	// LogBased is independent checkpointing with sender-based message
	// logging: the fourth recovery family (replay only the failed process
	// from its own checkpoint plus its peers' logs). Its checkpoints are
	// deliberately uncoordinated, so the permanent "line" is not a
	// consistent cut.
	LogBased = "log-based"
)

// Names lists every registered algorithm name.
func Names() []string {
	return []string{
		Mutable, MutableTargeted, KooToueg, Elnozahy,
		ChandyLamport, NaiveSimple, NaiveRevised, NaiveNoCSN,
		LogBased,
	}
}

// New builds an engine factory for a registered algorithm name.
func New(name string) (func(env protocol.Env) protocol.Engine, error) {
	switch name {
	case Mutable:
		return func(env protocol.Env) protocol.Engine { return core.New(env) }, nil
	case MutableTargeted:
		return func(env protocol.Env) protocol.Engine {
			return core.NewWithOptions(env, core.Options{Dissemination: core.CommitTargeted})
		}, nil
	case KooToueg:
		return func(env protocol.Env) protocol.Engine { return kootoueg.New(env) }, nil
	case Elnozahy:
		return func(env protocol.Env) protocol.Engine { return elnozahy.New(env) }, nil
	case ChandyLamport:
		return func(env protocol.Env) protocol.Engine { return chandylamport.New(env) }, nil
	case NaiveSimple:
		return func(env protocol.Env) protocol.Engine { return naive.New(env, naive.ModeSimple) }, nil
	case NaiveRevised:
		return func(env protocol.Env) protocol.Engine { return naive.New(env, naive.ModeRevised) }, nil
	case NaiveNoCSN:
		return func(env protocol.Env) protocol.Engine { return naive.New(env, naive.ModeNoCSN) }, nil
	case LogBased:
		return func(env protocol.Env) protocol.Engine { return logbased.New(env) }, nil
	default:
		return nil, fmt.Errorf("algorithms: unknown algorithm %q", name)
	}
}
