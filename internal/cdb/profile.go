// Package cdb assembles the five systems under test from the substrate
// packages: AWS RDS and the four anonymized cloud-native databases the
// paper evaluates. Each Profile collects the architecture's parameters with
// the paper statement they are calibrated from (Table IV configurations,
// §III-F lag behaviour, Table VI scaling cadences, Fig. 7 fail-over phases,
// Table V resource packages, §III-G pricing quirks).
//
// A Deployment instantiates a profile as a live cluster in a simulation:
// nodes, backends, replication streams, autoscaler, and fail-over wiring.
package cdb

import (
	"time"

	"cloudybench/internal/autoscale"
	"cloudybench/internal/cluster"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/pricing"
	"cloudybench/internal/replication"
)

// Kind identifies a SUT.
type Kind string

// The five systems under test.
const (
	RDS  Kind = "rds"  // coupled compute+storage, ARIES, fixed size
	CDB1 Kind = "cdb1" // storage disaggregation, redo pushdown, gradual scale-down
	CDB2 Kind = "cdb2" // split log/page services, elastic pool, tiny buffer
	CDB3 Kind = "cdb3" // compute-log-storage, parallel replay, pause/resume, branches
	CDB4 Kind = "cdb4" // memory disaggregation, remote buffer pool over RDMA
)

// Kinds lists all SUTs in the paper's reporting order.
var Kinds = []Kind{RDS, CDB1, CDB2, CDB3, CDB4}

// TenancyModel is the multi-tenant deployment style.
type TenancyModel string

// Tenancy models (paper §III-D).
const (
	TenancyIsolated TenancyModel = "isolated" // instance per tenant (RDS, CDB1, CDB4)
	TenancyPool     TenancyModel = "pool"     // shared elastic pool (CDB2)
	TenancyBranch   TenancyModel = "branch"   // git-style branches on shared storage (CDB3)
)

// Profile is one SUT's full parameterization.
type Profile struct {
	Kind        Kind
	DisplayName string
	Engine      string // underlying engine per Table IV

	// Compute (fixed-configuration values; serverless profiles scale
	// between Autoscale.MinVCores and MaxVCores).
	VCores      float64
	MemoryBytes int64 // buffer memory (Table IV "Buffer Size")

	// Service-cost calibration: engine CPU per row operation and per
	// transaction. Chosen so a 4-vCore node saturates in the paper's
	// Fig. 5 TPS range.
	OpCPU  time.Duration
	TxnCPU time.Duration

	// Storage path.
	Fabric  netsim.Fabric
	NetGbps float64
	// DeviceIOPS is the simulated device/service capability, which bounds
	// throughput (a small buffer plus a slow page service is what caps
	// CDB2 in Fig. 5). The provisioned IOPS that Table V prices are
	// PackageNode.IOPS.
	DeviceIOPS      float64
	StorageLatency  time.Duration // page-service time on miss
	LogAckLatency   time.Duration // commit durability beyond the wire
	RedoPushdown    bool          // storage materializes pages from log
	LocalStorage    bool          // RDS: pages on local NVMe, no network
	RemoteBufBytes  int64         // CDB4: shared remote buffer pool size
	CheckpointEvery time.Duration // ARIES checkpointing (0 = none)

	// Recovery prices the architecture's crash-recovery path (node layer):
	// full redo/undo for ARIES engines, analysis+undo for log-is-the-
	// database tiers whose pages are always current.
	Recovery node.RecoveryConfig

	// Replication (one stream per RO replica).
	Replication replication.Config

	// Fail-over.
	Failover cluster.FailoverConfig

	// Detector calibrates the partition failure detector: control-plane
	// heartbeats on virtual time with phi-style suspicion driving automated
	// lease-fenced promotion (or await-heal restart, per the architecture).
	Detector cluster.DetectorConfig

	// Autoscale is nil for fixed-size SUTs.
	Autoscale *autoscale.Config

	// Tenancy is the multi-tenant deployment model.
	Tenancy TenancyModel

	// PackageNode is the per-node resource package of Table V. Its IOPS is
	// the provisioned value used for pricing, not the simulated device
	// capability (DeviceIOPS); IOPS and network are cluster-wide (see
	// pricing.ClusterPackage).
	PackageNode pricing.Package

	// Actual is the vendor's real pricing model (§III-G starred scores).
	Actual pricing.Actual
}

// ProfileFor returns the canonical profile of a SUT.
func ProfileFor(kind Kind) Profile {
	switch kind {
	case RDS:
		return rdsProfile()
	case CDB1:
		return cdb1Profile()
	case CDB2:
		return cdb2Profile()
	case CDB3:
		return cdb3Profile()
	case CDB4:
		return cdb4Profile()
	default:
		panic("cdb: unknown kind " + string(kind))
	}
}

// rdsProfile: PostgreSQL 15, 4 vCores / 16 GB / 150 GB NVMe, 10 Gbps
// TCP/IP, no serverless, 128 MB buffer (Table IV). Coupled storage with
// ARIES checkpointing; replica fed by sequential WAL streaming with small
// lag ("relatively small... because of its coupled compute and storage").
func rdsProfile() Profile {
	return Profile{
		Kind:        RDS,
		DisplayName: "AWS RDS",
		Engine:      "PostgreSQL 15",
		VCores:      4,
		MemoryBytes: 128 << 20,
		OpCPU:       70 * time.Microsecond,
		TxnCPU:      40 * time.Microsecond,
		Fabric:      netsim.Local,
		NetGbps:     10,
		DeviceIOPS:  15_000,
		// Local NVMe: low latency but IOPS-limited; dirty flushing and
		// checkpoints share the channel.
		StorageLatency:  100 * time.Microsecond,
		LogAckLatency:   30 * time.Microsecond,
		LocalStorage:    true,
		CheckpointEvery: 30 * time.Second, // checkpoint_timeout=30s (§III-F)
		// Crash recovery: full ARIES at restart — analysis over the whole
		// durable log, redo of every record since the last fuzzy checkpoint
		// (faulting each touched page off local NVMe), undo of losers. The
		// paper's slowest recovery (Table VIII) is emergent from this.
		Recovery: node.RecoveryConfig{
			Base:              1500 * time.Millisecond,
			AnalysisPerRecord: 2 * time.Microsecond,
			RedoPerRecord:     40 * time.Microsecond,
			UndoPerRecord:     60 * time.Microsecond,
			RedoPageIO:        true,
		},
		Replication: replication.Config{
			BatchInterval: 4 * time.Millisecond,
			Lanes:         1,
			PerRecord:     20 * time.Microsecond,
		},
		Failover: cluster.FailoverConfig{
			// Table VIII: F 24s RW / 6s RO; R 18s/30s. ARIES redo+undo at
			// restart is the paper's explanation for the slowest recovery;
			// here F is the detect delay plus the Recovery pass above.
			DetectDelay:  2 * time.Second,
			RecoveryRamp: 18 * time.Second,
		},
		// RDS has no promotable shared-storage replica: a partitioned primary
		// can only be waited out and restarted in place — the blunt recovery
		// that dominates its partition MTTR.
		Detector: cluster.DetectorConfig{
			Interval: time.Second, Suspicion: 3,
		},
		Tenancy: TenancyIsolated,
		PackageNode: pricing.Package{
			VCores: 4, MemoryGB: 16, StorageGB: 42, IOPS: 1000, NetGbps: 10,
			Fabric: netsim.TCP,
		},
		Actual: pricing.Actual{
			PerVCoreHour: 0.40, PerGBMemHour: 0.02, PerGBStorageHour: 0.0012,
			PerIOPS100Hour: 0.0002, PerGbpsHour: 0.09,
			// "its pricing model charges for at least 10 minutes" (§III-G).
			MinBilling: 10 * time.Minute,
		},
	}
}

// cdb1Profile: Aurora-style storage disaggregation (1 vCore/2 GB – 4
// vCores/8 GB serverless, 128 MB buffer). Redo processing is pushed to the
// storage tier; six-way replication raises commit quorum latency and
// storage cost; scale-up is immediate but scale-down gradual (Table VI:
// 14 s up, 479 s down); replica lag ~177 ms from sequential batch replay.
func cdb1Profile() Profile {
	return Profile{
		Kind:           CDB1,
		DisplayName:    "CDB1",
		Engine:         "PostgreSQL 15",
		VCores:         4,
		MemoryBytes:    128 << 20,
		OpCPU:          70 * time.Microsecond,
		TxnCPU:         40 * time.Microsecond,
		Fabric:         netsim.TCP,
		NetGbps:        10,
		DeviceIOPS:     10_000,
		StorageLatency: 500 * time.Microsecond,
		// Six-way quorum (4/6) across zones.
		LogAckLatency: 400 * time.Microsecond,
		RedoPushdown:  true,
		// Log-is-the-database: the storage tier materializes pages from the
		// log continuously, so crash recovery skips redo — analysis + loser
		// undo only (§II-C's short recovery claim, checked by the gauntlet).
		Recovery: node.RecoveryConfig{
			Base:              800 * time.Millisecond,
			AnalysisPerRecord: 2 * time.Microsecond,
			UndoPerRecord:     30 * time.Microsecond,
			LogIsDatabase:     true,
		},
		Replication: replication.Config{
			// Sequential replay shipped in coarse batches -> ~177 ms lag.
			BatchInterval: 320 * time.Millisecond,
			Lanes:         1,
			PerRecord:     60 * time.Microsecond,
		},
		Failover: cluster.FailoverConfig{
			// Table VIII: F 6s / R 18s RW, 0s RO (materialized pages in
			// the page server; asynchronous log replay).
			DetectDelay:  time.Second,
			RecoveryRamp: 8 * time.Second,
			// Partition fail-over phases: the storage tier already holds
			// materialized pages, so switch-over is quick once the lease
			// advances.
			PreparePhase: time.Second,
			SwitchPhase:  2 * time.Second,
			RecoverPhase: 4 * time.Second,
		},
		// Quorum storage spans partitions: a reachable RO can be promoted
		// under a fresh lease epoch without waiting for the heal.
		Detector: cluster.DetectorConfig{
			Interval: 500 * time.Millisecond, Suspicion: 3,
			PromoteOnPartition: true,
		},
		Autoscale: &autoscale.Config{
			MinVCores: 1, MaxVCores: 4, Granularity: 0.25,
			MemBytesPerCore: 32 << 20, // buffer scales 32MB/core up to 128MB
			Tick:            4 * time.Second,
			Up:              autoscale.UpDouble,
			GradualDown:     true, DownStep: 0.25, DownHold: 20 * time.Second,
			// 12 quarter-core steps at 40 s apart: ~480 s from full size
			// to the floor, matching Table VI's 479 s scale-down.
			DownEvery: 40 * time.Second,
		},
		Tenancy: TenancyIsolated,
		PackageNode: pricing.Package{
			VCores: 4, MemoryGB: 32, StorageGB: 126, IOPS: 1000, NetGbps: 10,
			Fabric: netsim.TCP,
		},
		Actual: pricing.Actual{
			PerVCoreHour: 0.24, PerGBMemHour: 0.012, PerGBStorageHour: 0.0009,
			PerIOPS100Hour: 0.00015, PerGbpsHour: 0.08,
			MinBilling: time.Minute,
		},
	}
}

// cdb2Profile: HyperScale-style split of log service and page service
// (0.5–4 vCores serverless, 44 MB buffer). The two-hop replication path
// yields the highest lag (~1082 ms); the elastic pool shares vCores among
// tenants; on-demand scaling at ~30 s cadence; billed hourly.
func cdb2Profile() Profile {
	return Profile{
		Kind:           CDB2,
		DisplayName:    "CDB2",
		Engine:         "SQL Server 12",
		VCores:         4,
		MemoryBytes:    44 << 20,
		OpCPU:          75 * time.Microsecond,
		TxnCPU:         45 * time.Microsecond,
		Fabric:         netsim.TCP,
		NetGbps:        10,
		DeviceIOPS:     9_000,
		StorageLatency: 550 * time.Microsecond,
		LogAckLatency:  250 * time.Microsecond,
		RedoPushdown:   true,
		// Split log/page services: recovery is analysis + undo against the
		// always-current page service (no redo window).
		Recovery: node.RecoveryConfig{
			Base:              1000 * time.Millisecond,
			AnalysisPerRecord: 2 * time.Microsecond,
			UndoPerRecord:     30 * time.Microsecond,
			LogIsDatabase:     true,
		},
		Replication: replication.Config{
			// Log service -> page service -> replica: longest path,
			// sequential replay, ~1082 ms.
			BatchInterval: 800 * time.Millisecond,
			ExtraHops:     []time.Duration{400 * time.Millisecond},
			Lanes:         1,
			PerRecord:     80 * time.Microsecond,
		},
		Failover: cluster.FailoverConfig{
			// Table VIII: F 6s/6s, R 36s/18s — recovery route crosses the
			// separated log and page stores.
			DetectDelay: time.Second,
			// Recovery crosses the separated log and page stores, the
			// longest catch-up route (Table VIII: highest R).
			RecoveryRamp: 24 * time.Second,
			// Partition fail-over crosses the split log and page services
			// twice (collect LSNs, then replay): the slowest promote path.
			PreparePhase: 2 * time.Second,
			SwitchPhase:  3 * time.Second,
			RecoverPhase: 6 * time.Second,
		},
		// The pool's shared control plane heartbeats lazily and demands more
		// missed beats before acting — tenants share the detector.
		Detector: cluster.DetectorConfig{
			Interval: time.Second, Suspicion: 4,
			PromoteOnPartition: true,
		},
		Autoscale: &autoscale.Config{
			MinVCores: 0.5, MaxVCores: 4, Granularity: 0.5,
			MemBytesPerCore: 11 << 20,
			Tick:            30 * time.Second,
			Up:              autoscale.UpToDemand,
		},
		Tenancy: TenancyPool,
		// Table V: provisioned IOPS dwarf everyone (327x RDS cost).
		PackageNode: pricing.Package{
			VCores: 4, MemoryGB: 20, StorageGB: 63, IOPS: 327_680, NetGbps: 10,
			Fabric: netsim.TCP,
		},
		Actual: pricing.Actual{
			PerVCoreHour: 0.42, PerGBMemHour: 0.02, PerGBStorageHour: 0.001,
			PerIOPS100Hour: 0.00012, PerGbpsHour: 0.08,
			// "the elastic pool is charged at least one hour" (§III-G).
			MinBilling: time.Hour,
		},
	}
}

// cdb3Profile: Neon-style compute/log/storage split on PostgreSQL
// (0.25–4 CU serverless, 128 MB buffer + local file cache). Parallel log
// replay gives ~14 ms lag; CU scaling at ~60 s cadence with pause/resume;
// git-style branch tenancy; startup pricing ~3x cheaper per vCore.
func cdb3Profile() Profile {
	return Profile{
		Kind:        CDB3,
		DisplayName: "CDB3",
		Engine:      "PostgreSQL 15",
		VCores:      4,
		MemoryBytes: 128 << 20,
		OpCPU:       65 * time.Microsecond,
		TxnCPU:      40 * time.Microsecond,
		Fabric:      netsim.TCP,
		NetGbps:     10,
		DeviceIOPS:  12_000,
		// Local file cache + page servers: cheaper miss path than CDB1.
		StorageLatency: 300 * time.Microsecond,
		LogAckLatency:  200 * time.Microsecond, // safekeeper quorum (3-way)
		RedoPushdown:   true,
		// Parallel log replay in the storage tier keeps pages current;
		// restart pays analysis + undo only.
		Recovery: node.RecoveryConfig{
			Base:              600 * time.Millisecond,
			AnalysisPerRecord: time.Microsecond,
			UndoPerRecord:     20 * time.Microsecond,
			LogIsDatabase:     true,
		},
		Replication: replication.Config{
			// Parallel replay across page-server shards: ~14 ms.
			BatchInterval: 10 * time.Millisecond,
			Lanes:         8,
			PerRecord:     50 * time.Microsecond,
		},
		Failover: cluster.FailoverConfig{
			// Table VIII: F 12s/6s, R 30s/6s — Kubernetes reschedules the
			// compute pod, then pages come from the page server.
			DetectDelay:  time.Second,
			RecoveryRamp: 14 * time.Second,
			// Partition fail-over reschedules compute against the safekeeper
			// quorum; parallel replay keeps the recover phase short.
			PreparePhase: time.Second,
			SwitchPhase:  2 * time.Second,
			RecoverPhase: 3 * time.Second,
		},
		// Safekeeper quorum survives the minority side: promote quickly.
		Detector: cluster.DetectorConfig{
			Interval: 500 * time.Millisecond, Suspicion: 3,
			PromoteOnPartition: true,
		},
		Autoscale: &autoscale.Config{
			MinVCores: 0.25, MaxVCores: 4, Granularity: 0.25,
			MemBytesPerCore: 32 << 20, // 1 CU = 1 vCore + 2 GB (buffer share)
			// The scaler evaluates every 15 s but convergence to a new
			// level takes several ticks — matching Table VI's ~60 s
			// observed scale times.
			Tick:           15 * time.Second,
			Up:             autoscale.UpToDemand,
			DownThreshold:  0.6,
			PauseAfterIdle: 60 * time.Second,
			ResumeDelay:    800 * time.Millisecond,
		},
		Tenancy: TenancyBranch,
		PackageNode: pricing.Package{
			VCores: 4, MemoryGB: 16, StorageGB: 63, IOPS: 1000, NetGbps: 10,
			Fabric: netsim.TCP,
		},
		Actual: pricing.Actual{
			// "$0.16 per vCore compared with $0.42 per vCore by CDB2".
			PerVCoreHour: 0.16, PerGBMemHour: 0.008, PerGBStorageHour: 0.0005,
			PerIOPS100Hour: 0.0001, PerGbpsHour: 0.05,
			MinBilling: 0, // per-second billing
		},
	}
}

// cdb4Profile: memory disaggregation (MySQL 8, 4 vCores, 16 GB local +
// 24 GB remote RAM over 10 Gbps RDMA, 10 GB local buffer, fixed size).
// Remote buffer misses cost ~an RDMA round trip; replication lag ~1.5 ms;
// fastest fail-over via RO promotion (Fig. 7 phases).
func cdb4Profile() Profile {
	return Profile{
		Kind:           CDB4,
		DisplayName:    "CDB4",
		Engine:         "MySQL 8",
		VCores:         4,
		MemoryBytes:    10 << 30,
		OpCPU:          60 * time.Microsecond,
		TxnCPU:         35 * time.Microsecond,
		Fabric:         netsim.RDMA,
		NetGbps:        10,
		DeviceIOPS:     40_000,
		StorageLatency: 450 * time.Microsecond,
		LogAckLatency:  60 * time.Microsecond, // RDMA log shipping
		RedoPushdown:   true,
		RemoteBufBytes: 24 << 30,
		// RW crashes fail over (Figure 7) rather than recover in place;
		// this config prices the old RW's rejoin and RO resyncs: remote
		// memory keeps pages warm, so analysis + undo only.
		Recovery: node.RecoveryConfig{
			Base:              400 * time.Millisecond,
			AnalysisPerRecord: time.Microsecond,
			UndoPerRecord:     20 * time.Microsecond,
			LogIsDatabase:     true,
		},
		Replication: replication.Config{
			// On-demand replay against the shared remote buffer: ~1.5 ms.
			BatchInterval: time.Millisecond,
			Lanes:         8,
			PerRecord:     2 * time.Microsecond,
		},
		Failover: cluster.FailoverConfig{
			// Fig. 7: prepare 1s, switch-over 2s, recovering 3s; detect via
			// heartbeat ~0.5s. Table VIII: F 3s/2s, R 3s/4s.
			DetectDelay:        500 * time.Millisecond,
			PromoteOnRWFailure: true,
			PreparePhase:       time.Second,
			SwitchPhase:        2 * time.Second,
			RecoverPhase:       3 * time.Second,
		},
		// Heartbeats ride the RDMA fabric: the tightest detector and the
		// fastest lease-fenced promotion of the five SUTs.
		Detector: cluster.DetectorConfig{
			Interval: 250 * time.Millisecond, Suspicion: 3,
			PromoteOnPartition: true,
		},
		Tenancy: TenancyIsolated,
		PackageNode: pricing.Package{
			VCores: 4, MemoryGB: 40, StorageGB: 63, IOPS: 84_000, NetGbps: 10,
			Fabric: netsim.RDMA,
		},
		Actual: pricing.Actual{
			PerVCoreHour: 0.30, PerGBMemHour: 0.015, PerGBStorageHour: 0.0009,
			PerIOPS100Hour: 0.00013, PerGbpsHour: 0.20,
			MinBilling: time.Minute,
		},
	}
}
