package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// The layering rule machine-checks the package import DAG. Each package
// is assigned a named layer; a layer carries the exact set of internal
// packages it may import directly. The load-bearing edges this pins:
//
//   - kernel stays a leaf over the pure math packages (collide, rng) —
//     the width-grouped loops must never grow a dependency on the
//     engine, stores, or orchestration above them;
//   - engine never imports sim/sim3/run/ckpt — the pipeline cannot know
//     its adapters, or the unification collapses;
//   - examples import no internal package at all — they are the public
//     API contract surface (this replaces the old CI grep).
//
// A new internal package fails the rule until it is assigned here:
// declaring its place in the DAG is part of adding it. Fixture packages
// under testdata declare a layer with //dsmclint:layer <name>.
var layerAllows = map[string][]string{
	// leaf: no internal imports (rng, molec, fixed, phys, report, stats, lint).
	"leaf": {},
	// physics: the collision exchange over molecule constants.
	"physics": {"dsmc/internal/molec", "dsmc/internal/rng"},
	// kernel: width-grouped inner loops over pure math only.
	"kernel": {"dsmc/internal/collide", "dsmc/internal/rng"},
	// storage: the particle store.
	"storage": {"dsmc/internal/collide", "dsmc/internal/kernel", "dsmc/internal/rng"},
	// par: worker pool + fused cell sort.
	"par": {"dsmc/internal/kernel", "dsmc/internal/particle", "dsmc/internal/rng"},
	// geometry: domains and grids.
	"geom": {"dsmc/internal/rng"},
	"grid": {"dsmc/internal/geom"},
	// sampling: moment accumulation and field derivation.
	"sample": {"dsmc/internal/grid", "dsmc/internal/kernel", "dsmc/internal/particle", "dsmc/internal/phys"},
	// baseline: pluggable reference collision schemes.
	"baseline": {"dsmc/internal/collide", "dsmc/internal/rng"},
	// store: the content-addressed result store — artifact bytes, keys
	// and codecs over the filesystem plus the obs telemetry leaf. It
	// knows nothing of specs or scheduling: key derivation lives in run,
	// so the store can sit below run, coord and the public package alike.
	"store": {"dsmc/internal/obs"},
	// obs: the metrics registry — a leaf importable from the engine up
	// (engine, coord, run, cmd), never from the compute layers below
	// (kernel, par, particle): the width-grouped loops and the store
	// must stay instrumentation-free so their cost model owes nothing
	// to telemetry.
	"obs": {},
	// engine: the unified pipeline — everything below it, nothing above.
	"engine": {
		"dsmc/internal/baseline", "dsmc/internal/collide", "dsmc/internal/kernel",
		"dsmc/internal/obs", "dsmc/internal/par", "dsmc/internal/particle",
		"dsmc/internal/rng", "dsmc/internal/sample",
	},
	// ckpt: engine-state serialization.
	"ckpt": {
		"dsmc/internal/collide", "dsmc/internal/engine", "dsmc/internal/kernel",
		"dsmc/internal/particle", "dsmc/internal/rng", "dsmc/internal/sample",
	},
	// backends: geometry+config adapters over the engine.
	"sim": {
		"dsmc/internal/baseline", "dsmc/internal/ckpt", "dsmc/internal/collide",
		"dsmc/internal/engine", "dsmc/internal/geom", "dsmc/internal/grid",
		"dsmc/internal/kernel", "dsmc/internal/molec", "dsmc/internal/par",
		"dsmc/internal/particle", "dsmc/internal/phys", "dsmc/internal/rng",
		"dsmc/internal/sample",
	},
	"sim3": {
		"dsmc/internal/ckpt", "dsmc/internal/collide", "dsmc/internal/engine",
		"dsmc/internal/kernel", "dsmc/internal/molec", "dsmc/internal/par",
		"dsmc/internal/particle", "dsmc/internal/phys", "dsmc/internal/rng",
		"dsmc/internal/sample",
	},
	// cm: the instrumented Connection Machine emulation and its adapter.
	"cm": {"dsmc/internal/par"},
	"cmsim": {
		"dsmc/internal/cm", "dsmc/internal/fixed", "dsmc/internal/geom",
		"dsmc/internal/grid", "dsmc/internal/rng", "dsmc/internal/sim",
	},
	// golden: FNV bit-identity pinning over both backends.
	"golden": {"dsmc/internal/kernel", "dsmc/internal/obs", "dsmc/internal/sim", "dsmc/internal/sim3"},
	// run: the sweep job core, aggregation, checkpoint/memoization
	// orchestration.
	"run": {
		"dsmc/internal/ckpt", "dsmc/internal/grid", "dsmc/internal/kernel",
		"dsmc/internal/molec", "dsmc/internal/rng", "dsmc/internal/sample",
		"dsmc/internal/sim", "dsmc/internal/sim3", "dsmc/internal/store",
	},
	// coord: the wire shell of distributed sweeps — HTTP protocol,
	// pull-worker and fleet table — over run's job core, the state
	// machine in-process sweeps run on too. It sits ABOVE the public
	// package: jobs are enumerated, run and assembled through the dsmc
	// distribution surface, so a worker process has exactly the
	// information an API client has. Beyond the core it reaches only the
	// obs telemetry leaf and the result store the core memoizes against.
	"coord": {"dsmc/internal/obs", "dsmc/internal/run", "dsmc/internal/store"},
	// root: the public dsmc package — composes backends and run, but
	// never reaches under engine's hood directly.
	"root": {
		"dsmc/internal/cmsim", "dsmc/internal/geom", "dsmc/internal/grid",
		"dsmc/internal/molec", "dsmc/internal/phys", "dsmc/internal/run",
		"dsmc/internal/sample", "dsmc/internal/sim", "dsmc/internal/sim3",
		"dsmc/internal/store",
	},
	// cmd: developer/server binaries may reach anything.
	"cmd": {"*"},
	// examples: the public-API contract surface — no internal imports.
	"examples": {},
}

// layerOf assigns every module package its layer.
var layerOf = map[string]string{
	"dsmc/internal/rng":      "leaf",
	"dsmc/internal/molec":    "leaf",
	"dsmc/internal/fixed":    "leaf",
	"dsmc/internal/phys":     "leaf",
	"dsmc/internal/report":   "leaf",
	"dsmc/internal/stats":    "leaf",
	"dsmc/internal/lint":     "leaf",
	"dsmc/internal/collide":  "physics",
	"dsmc/internal/kernel":   "kernel",
	"dsmc/internal/particle": "storage",
	"dsmc/internal/par":      "par",
	"dsmc/internal/geom":     "geom",
	"dsmc/internal/grid":     "grid",
	"dsmc/internal/sample":   "sample",
	"dsmc/internal/baseline": "baseline",
	"dsmc/internal/obs":      "obs",
	"dsmc/internal/engine":   "engine",
	"dsmc/internal/ckpt":     "ckpt",
	"dsmc/internal/sim":      "sim",
	"dsmc/internal/sim3":     "sim3",
	"dsmc/internal/cm":       "cm",
	"dsmc/internal/cmsim":    "cmsim",
	"dsmc/internal/golden":   "golden",
	"dsmc/internal/run":      "run",
	"dsmc/internal/store":    "store",
	"dsmc/internal/coord":    "coord",
	"dsmc":                   "root",
}

// Layering enforces the import DAG declared above.
type Layering struct{}

// Name implements Rule.
func (Layering) Name() string { return "layering" }

// Doc implements Rule.
func (Layering) Doc() string {
	return "package imports stay inside the declared layer DAG (kernel leaf-only, engine below sim/run, examples public-only)"
}

// Check implements Rule.
func (l Layering) Check(pkg *Package) []Diagnostic {
	layer := pkg.dirs.layer
	if layer == "" {
		if pkg.underTestdata() {
			return nil
		}
		layer = layerOf[pkg.Path]
		switch {
		case layer == "":
			switch {
			case strings.HasPrefix(pkg.Path, "dsmc/cmd/"):
				layer = "cmd"
			case strings.HasPrefix(pkg.Path, "dsmc/examples/"):
				layer = "examples"
			case strings.HasPrefix(pkg.Path, "dsmc/internal/"):
				// Position the finding at the package clause of the
				// first file: there is no single import to blame.
				pos := pkg.Fset.Position(pkg.Files[0].Name.Pos())
				return []Diagnostic{{pos, l.Name(),
					fmt.Sprintf("internal package %s has no layer: declare its place in the import DAG in internal/lint/layering.go (layerOf)", pkg.Path)}}
			default:
				return nil // packages outside the module's layered zones
			}
		}
	}
	allowed, ok := layerAllows[layer]
	if !ok {
		pos := pkg.Fset.Position(pkg.Files[0].Name.Pos())
		return []Diagnostic{{pos, l.Name(), fmt.Sprintf("unknown layer %q", layer)}}
	}
	allowAll := len(allowed) == 1 && allowed[0] == "*"
	allowSet := map[string]bool{}
	for _, a := range allowed {
		allowSet[a] = true
	}
	var out []Diagnostic
	check := func(spec *ast.ImportSpec) {
		path := importPath(spec)
		if !strings.HasPrefix(path, "dsmc/internal/") || allowAll || allowSet[path] {
			return
		}
		// The suite's own fixtures import module packages to seed
		// violations; only the declared layer constrains them.
		msg := fmt.Sprintf("package in layer %q may not import %s", layer, path)
		if len(allowed) == 0 {
			msg += " (the layer imports no internal packages)"
		} else {
			msg += fmt.Sprintf(" (allowed: %s)", strings.Join(allowed, ", "))
		}
		out = append(out, Diagnostic{pkg.Fset.Position(spec.Pos()), l.Name(), msg})
	}
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			check(spec)
		}
	}
	return out
}
