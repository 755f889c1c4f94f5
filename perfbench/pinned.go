package main

// defaultSeed is the seed the pinned digests were recorded with.
const defaultSeed = 7

// pinnedDigests are the report digests of each workload's full-size run on
// defaultSeed. A change that alters any simulated result changes them.
var pinnedDigests = map[string]string{
	"fleet-pack":   "f0f2c8f1aa037e29",
	"kv-mix":       "4e185d2b1d9be8c1",
	"paper-grid":   "a0dc7a7c45667e73",
	"neighbor-wfq": "57e01506e574f8d5",
}
