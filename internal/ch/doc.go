// Package ch implements customizable contraction hierarchies (CCH) —
// the speed-up technique the paper cites as reference [16] and names as
// the way to accelerate all compared routing algorithms consistently
// (Section VII-C) — after Dibbelt, Strasser and Wagner's Customizable
// Contraction Hierarchies (BuildTopology / Topology / Metric /
// MetricQuery).
//
// A classic contraction hierarchy couples contraction to one weight
// function: witness searches prune shortcuts the metric makes
// redundant, so preprocessing must be redone whenever edge costs
// change. CCH splits that pipeline at the metric boundary.
// BuildTopology contracts the road network once, metric-independently —
// no witness searches, every potential shortcut kept — producing a fixed
// skeleton of undirected arcs in flat CSR int32 arrays. Metric.Customize
// then assigns both directed weights to every skeleton arc for an
// arbitrary non-negative edge-cost function by relaxing lower triangles
// bottom-up in contraction order: one linear pass over the skeleton,
// milliseconds where re-contraction costs seconds. Routing preferences,
// live traffic weights and custom cost functions each become just
// another Metric over the shared Topology, and MetricQuery answers any
// of them with a bidirectional upward search from one reusable
// per-goroutine scratch (epoch-reset arrays, no per-query allocation),
// unpacking shortcuts back to road-network vertices.
//
// Queries return exactly Dijkstra's costs; property tests in this
// package pin CCH ≡ Dijkstra equivalence.
package ch
