package proto

// Test-only views of a scan plan's lanes, for the registry plan tests
// in package proto_test.

// LaneAdmitsAt is laneAdmitsAt, the per-offset form of a lane's test.
var LaneAdmitsAt = laneAdmitsAt

// PlanSkippable returns the mask of the lanes a walk of p may skip.
func PlanSkippable(p *ScanPlan) uint64 { return p.lanes.skippable }

// WalkPlanLanes returns the offsets below end of b that one walk of
// p's lanes visits, with the lanes in skip turned off.
func WalkPlanLanes(p *ScanPlan, b []byte, end int, skip uint64) []int {
	return walkLanes(p.lanes, b, end, skip)
}
