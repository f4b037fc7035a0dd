package core_test

import (
	"semdisco/internal/core"
	"semdisco/internal/oracle"
)

func init() {
	core.SetOracleRank(oracle.Rank)
	core.SetOracleCTS(oracle.CTS)
}
