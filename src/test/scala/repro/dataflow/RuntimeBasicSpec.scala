package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.nexmark._
import repro.queries._

/** Engine basics on Q1 (the simplest pipeline): results, latency
  * accounting, determinism, stability bookkeeping.
  */
class RuntimeBasicSpec extends AnyFunSuite {

  private def smallRun(protocol: String, rate: Double = 200.0) =
    SimTestKit.run(Q1, protocol, parallelism = 2, rate = rate, horizonMicros = 10_000_000L)

  test("Q1 produces the expected multiset of converted bids") {
    val (rt, res) = smallRun("UNC")
    val evs = NexmarkGen.events(
      NexmarkConfig(200.0, 10_000_000L, seed = 7L, include = Set("bid")))
    assert(res.unconsumed == 0)
    assert(Q1.sinkDigest(rt) == SparkRefs.q1Expected(evs))
  }

  test("simulation is deterministic: identical digests and metrics across runs") {
    val (rt1, res1) = smallRun("UNC")
    val (rt2, res2) = smallRun("UNC")
    assert(Q1.sinkDigest(rt1) == Q1.sinkDigest(rt2))
    assert(res1 == res2)
  }

  test("sink latencies are positive and bounded at low rate") {
    val (_, res) = smallRun("COOR")
    assert(res.p50Micros > 0)
    assert(res.p50Micros < 1_000_000L, s"p50 unexpectedly high: ${res.p50Micros}")
    assert(res.p99Micros >= res.p50Micros)
  }

  test("sources drain and ledger is clean without failures") {
    for (p <- Seq("COOR", "UNC", "CIC")) {
      val (_, res) = smallRun(p)
      assert(res.unconsumed == 0, s"$p left input unconsumed")
      assert(res.eoViolations == 0, s"$p ledger violations")
      assert(res.dedupDropped == 0, s"$p dropped messages without a failure")
    }
  }

  test("data byte accounting is nonzero and protocol-dependent") {
    val (_, unc) = smallRun("UNC")
    val (_, cic) = smallRun("CIC")
    assert(unc.dataBytes > 0)
    // Same data; CIC adds piggyback bytes on every message.
    assert(cic.protoBytes > unc.protoBytes)
    assert(cic.overheadRatio > unc.overheadRatio)
  }

  test("overload is detected as backlog (MST machinery precondition)") {
    // 2 workers, src svc 2 ms => capacity ~1000/s; 5x that must backlog.
    val (rt, res) = SimTestKit.run(Q1, "UNC", 2, rate = 5000.0, horizonMicros = 30_000_000L)
    assert(res.unconsumed > 0 || rt.queuedMessagesAtEnd > 0 || res.maxQueue > 500)
  }

  test("per-channel sequences are contiguous at every instance after a run") {
    val (rt, _) = smallRun("UNC")
    rt.allInstances.foreach { inst =>
      inst.inCh.indices.foreach { k =>
        assert(inst.inbox(k).isEmpty, s"undrained inbox ${inst.inCh(k)}")
      }
    }
  }
}
