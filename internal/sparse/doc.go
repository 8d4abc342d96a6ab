// Package sparse implements the small linear-algebra kernel required by
// the preference-transfer step (paper Section V-B): symmetric sparse
// matrices in CSR form, the unnormalized graph Laplacian, and the
// solver for Eq. 3: a Jacobi-preconditioned conjugate gradient that
// solves all p columns in one pass over the matrix per iteration. The
// paper cites Jacobi and CG; preconditioning CG with Jacobi combines
// them. Plain per-vector CG stays as the reference the tests and
// BenchmarkSparseCG measure against.
package sparse
