// Package mapmatch implements hidden-Markov-model map matching after
// Newson & Krumm (SIGSPATIAL 2009), the algorithm the paper cites for
// aligning GPS trajectories with road-network paths.
//
// Emission probabilities are Gaussian in the distance from a GPS record
// to a candidate edge; transition probabilities decay exponentially in
// the absolute difference between the network route distance and the
// straight-line distance of consecutive records. Decoding is Viterbi
// over the candidate lattice. Route distances between candidates come
// from one bounded Dijkstra search per previous-level candidate, which
// stops as soon as the current level's candidate edges are reached, so
// matching stays near-linear in trajectory length.
package mapmatch
