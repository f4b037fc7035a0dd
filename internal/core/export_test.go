package core

// oracleRank is internal/oracle.Rank. The oracle imports core for the
// Embedded it reads, so in-package tests cannot import it; oracle_test.go
// (package core_test) installs it here before any test runs.
var oracleRank func(emb *Embedded, q []float32, k int, h float32) []Match

// SetOracleRank installs the reference ranking for in-package tests.
func SetOracleRank(f func(emb *Embedded, q []float32, k int, h float32) []Match) { oracleRank = f }

// oracleCTS is internal/oracle.CTS, installed like oracleRank.
var oracleCTS func(emb *Embedded, s *CTS, opt CTSOptions, q []float32, k int, allow func(string) bool) []Match

// SetOracleCTS installs CTS's exact form for in-package tests.
func SetOracleCTS(f func(emb *Embedded, s *CTS, opt CTSOptions, q []float32, k int, allow func(string) bool) []Match) {
	oracleCTS = f
}
