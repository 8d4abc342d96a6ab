// Package route implements shortest-path search on road networks and
// the PathEngine seam every routing consumer programs against.
//
// # Searches
//
// The package provides plain Dijkstra under any scalar weight
// (shortest, fastest, most fuel-efficient paths), the paper's
// preference-aware modified Dijkstra (Algorithm 2), and a
// stop-condition variant used by the unified routing procedure
// (Section VI, Case 2) to find the first region reached from an
// out-of-region endpoint.
//
// # The PathEngine seam
//
// PathEngine is the pluggable backend: Graph, Fork, Route, Fastest,
// Shortest, RoutePref and CustomRoute. Everything that needs a
// shortest path — core.Router's unified routing (approach searches,
// fastest fallbacks, connector stitching), the serving layer, the
// baselines, the trajectory simulator, the experiment harness — holds
// a PathEngine, so speed-up techniques plug in beneath all of them at
// once. Two implementations ship:
//
//   - Engine: plain Dijkstra plus Algorithm 2 (the default).
//   - CHEngine: every query family on a customizable contraction
//     hierarchy (internal/ch): one metric-independent topology, one
//     customized metric per scalar weight, preference (weight, slave
//     mask) or custom cost function, kept in a table all forks share.
//     A Detached fork reads that table but customizes the metrics it
//     lacks privately; preference learning runs on one, so its
//     candidate metrics never stay resident beside the serving ones.
//
// # Concurrency contract
//
// A PathEngine owns mutable query state and serves one goroutine.
// Fork() returns a sibling sharing all immutable built state — the
// road network and, for CHEngine, the hierarchy — with fresh query
// state. Forking is cheap: per-vertex search buffers are allocated
// lazily on a fork's first query, so core.Router.Clone and the serve
// package's per-snapshot clone pools cost a struct up front and only
// forks that actually serve traffic pay for arrays.
package route
