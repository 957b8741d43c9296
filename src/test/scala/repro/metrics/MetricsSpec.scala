package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.queries.Q1
import scala.util.Random

class MetricsSpec extends AnyFunSuite {

  test("collector accumulates into frozen results deterministically") {
    val m = new MetricsCollector
    m.dataBytes = 100; m.protoBytes = 10
    m.recordLatency(50); m.recordLatency(60)
    assert(m.latencies.size == 2)
    assert(m.latencies.sum == 110)
  }

  test("empty observations yield zeros, not errors") {
    assert(new MetricsCollector().latencies.isEmpty)
    // Input ends at 0.5 s and drains long before the window opens at 1 s.
    val (_, res) = SimTestKit.run(Q1, "UNC", 2, rate = 100.0, horizonMicros = 500_000L)
    assert(res.sinkRecords == 0 && res.p50Micros == 0L && res.p99Micros == 0L)
  }

  test("the latency buffer keeps every value in order past its initial capacity") {
    val m = new MetricsCollector
    val rnd = new Random(42)
    val xs = Seq.fill(3 * MetricsCollector.InitialLatencyCapacity + 5)(rnd.nextLong())
    xs.foreach(m.recordLatency)
    assert(m.latencies.toSeq == xs)
    val sorted = m.latencies
    java.util.Arrays.sort(sorted)
    assert(sorted.toSeq == xs.sorted)
    assert(m.latencies.toSeq == xs, "sorting the copy must leave the collector unchanged")
  }
}
