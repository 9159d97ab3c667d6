// Package msql is a from-scratch Go reproduction of "Execution of
// Extended Multidatabase SQL" (Suardi, Rusinkiewicz, Litwin — ICDE 1993):
// the MSQL multidatabase language with the paper's extensions (VITAL
// designators, COMP compensation clauses, multitransactions with
// acceptable termination states, INCORPORATE/IMPORT dictionaries),
// executed by translating MSQL to the DOL task language and running it on
// a Narada-style engine over heterogeneous simulated local DBMSs.
//
// See README.md for an overview, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced evaluation artifacts. The
// implementation lives under internal/; the benchmark is the module in
// bench/.
package msql
