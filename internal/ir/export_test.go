package ir

// FuzzSeeds exposes both parser fuzz targets' seed inputs to the
// external golden test.
var FuzzSeeds = append(append([]string(nil), fuzzParseSeeds...), fuzzNeverPanicsSeeds...)
