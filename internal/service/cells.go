package service

import (
	"fmt"

	"qlec/internal/experiment"
)

// cellPlan is a sweep request decomposed into independently executable,
// content-addressed cell requests plus the deterministic assembly step
// that folds their outcomes back into the sweep's result envelope. The
// cells and the fold are the experiment harness's own code, which is
// what makes a pooled sweep — on a fleet of one or of many — byte-
// identical to experiment.Config.RunFig3 and friends: only the executor
// differs.
type cellPlan struct {
	cells    []Request // normalized KindCell requests, in assembly order
	hashes   []string  // cells[i]'s content hash
	assemble func(outcomes []*ResultEnvelope) (*ResultEnvelope, error)
}

// planCells decomposes a normalized, validated request. KindOne and
// KindCell requests are their own single-cell plan (the "cell" is the
// request itself, so its envelope is the final envelope). Sweep kinds
// decompose via the experiment harness's cell builders.
func planCells(req Request) (*cellPlan, error) {
	switch req.Kind {
	case KindFig3:
		specs, err := req.Config.Fig3Cells(req.Protocols)
		if err != nil {
			return nil, err
		}
		lambdas, seeds := req.Config.Lambdas, req.Config.Seeds
		return specPlan(specs, func(cells []experiment.CellOutcome) (*ResultEnvelope, error) {
			out, err := experiment.AssembleFig3(req.Protocols, lambdas, seeds, cells)
			if err != nil {
				return nil, err
			}
			return &ResultEnvelope{Kind: KindFig3, Fig3: out}, nil
		})
	case KindKSweep:
		specs, err := req.Config.KSweepCells(req.Protocols[0], req.Ks, req.Lambda)
		if err != nil {
			return nil, err
		}
		seeds := req.Config.Seeds
		return specPlan(specs, func(cells []experiment.CellOutcome) (*ResultEnvelope, error) {
			out, err := experiment.AssembleKSweep(req.Ks, seeds, cells)
			if err != nil {
				return nil, err
			}
			return &ResultEnvelope{Kind: KindKSweep, KSweep: out}, nil
		})
	case KindNSweep:
		specs, err := req.Config.NSweepCells(req.Protocols[0], req.Ns, req.Lambda)
		if err != nil {
			return nil, err
		}
		seeds := req.Config.Seeds
		return specPlan(specs, func(cells []experiment.CellOutcome) (*ResultEnvelope, error) {
			out, err := experiment.AssembleNSweep(req.Ns, seeds, specs, cells)
			if err != nil {
				return nil, err
			}
			return &ResultEnvelope{Kind: KindNSweep, NSweep: out}, nil
		})
	case KindOne, KindCell:
		hash, err := req.Hash()
		if err != nil {
			return nil, err
		}
		return &cellPlan{
			cells:  []Request{req},
			hashes: []string{hash},
			assemble: func(outcomes []*ResultEnvelope) (*ResultEnvelope, error) {
				if len(outcomes) != 1 || outcomes[0] == nil {
					return nil, fmt.Errorf("service: single-cell assembly wants 1 outcome, got %d", len(outcomes))
				}
				return outcomes[0], nil
			},
		}, nil
	default:
		return nil, &badKindError{kind: req.Kind}
	}
}

// specPlan turns experiment cell specs into content-addressed KindCell
// requests and wraps the outcome fold with the envelope→CellOutcome
// unpacking every sweep kind shares.
func specPlan(specs []experiment.CellSpec, fold func([]experiment.CellOutcome) (*ResultEnvelope, error)) (*cellPlan, error) {
	p := &cellPlan{
		cells:  make([]Request, len(specs)),
		hashes: make([]string, len(specs)),
	}
	for i, s := range specs {
		cr := Request{
			Kind:      KindCell,
			Config:    s.Config,
			Protocols: []experiment.ProtocolID{s.Protocol},
			Lambda:    s.Lambda,
			Seed:      s.Seed,
		}.Normalize()
		hash, err := cr.Hash()
		if err != nil {
			return nil, err
		}
		p.cells[i] = cr
		p.hashes[i] = hash
	}
	p.assemble = func(outcomes []*ResultEnvelope) (*ResultEnvelope, error) {
		if len(outcomes) != len(specs) {
			return nil, fmt.Errorf("service: sweep assembly wants %d outcomes, got %d", len(specs), len(outcomes))
		}
		cells := make([]experiment.CellOutcome, len(outcomes))
		for i, env := range outcomes {
			if env == nil || env.Cell == nil {
				return nil, fmt.Errorf("service: cell %d outcome missing its payload", i)
			}
			cells[i] = *env.Cell
		}
		return fold(cells)
	}
	return p, nil
}
