// Package gate holds one allow for each gated rule and no violation of
// any: whether an allow is stale depends only on whether the rule's gate
// covers the package (TestGateDecidesStaleness).
package gate

func quiet() int {
	//detlint:allow globalrand(fixture: nothing here draws randomness)
	//detlint:allow rawgo(fixture: nothing here spawns or joins)
	//detlint:allow vtblock(fixture: nothing here blocks on the OS)
	return 1
}
