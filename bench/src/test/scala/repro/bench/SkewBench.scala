package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ExpConfig, Experiment, Mst, Tables}
import repro.queries.Q12

/** Extra (not a numbered table): the skewed-NexMark experiment behind
  * Fig. 12's headline result — under hot-item skew the coordinated
  * protocol's checkpointing time blows up (stragglers delay markers and
  * alignment blocks channels) while the uncoordinated protocols stay flat.
  *
  * Runs at 80 % of the *non-skewed* MST — the paper's higher-throughput
  * skew setting, where "even the lowest skew ratio has a significant
  * impact" because the hot instances are pushed past their capacity.
  */
class SkewBench extends AnyFunSuite {
  private val Workers = 10
  private val Hot = 0.3

  /** 80 % of each protocol's non-skewed MST, searched once. */
  private lazy val rates: Map[String, Double] =
    Seq("COOR", "UNC").map(p => p -> 0.8 * Mst.find(Q12(), p, Workers)).toMap

  private def cell(proto: String, hotRatio: Double) =
    Experiment.run(ExpConfig(Q12(), proto, Workers, rates(proto), hotRatio = hotRatio,
      sim = Tables.nexmarkSim.copy(failAtMicros = None)))._2

  test("Fig. 12 shape — skew blows up COOR checkpointing time, not UNC's") {
    val coorUniform = cell("COOR", 0.0)
    val coorSkewed = cell("COOR", Hot)
    val uncUniform = cell("UNC", 0.0)
    val uncSkewed = cell("UNC", Hot)
    println(f"COOR avg checkpoint time: uniform ${coorUniform.avgCheckpointMicros / 1000}%.1f ms" +
      f" -> skewed ${coorSkewed.avgCheckpointMicros / 1000}%.1f ms")
    println(f"UNC  avg checkpoint time: uniform ${uncUniform.avgCheckpointMicros / 1000}%.1f ms" +
      f" -> skewed ${uncSkewed.avgCheckpointMicros / 1000}%.1f ms")
    println(f"p50 latency skewed: COOR ${coorSkewed.p50Micros / 1000.0}%.1f ms, " +
      f"UNC ${uncSkewed.p50Micros / 1000.0}%.1f ms")
    assert(coorSkewed.avgCheckpointMicros > 3 * coorUniform.avgCheckpointMicros,
      "skew should inflate COOR round durations via straggler alignment")
    assert(uncSkewed.avgCheckpointMicros < 10 * uncUniform.avgCheckpointMicros,
      "UNC checkpoints are local; skew must not blow them up")
    assert(coorSkewed.avgCheckpointMicros > 10 * uncSkewed.avgCheckpointMicros,
      "under skew UNC's checkpointing time must be far below COOR's")
  }

  test("Fig. 12 shape — UNC p50 latency under skew is not worse than COOR's") {
    val coorSkewed = cell("COOR", Hot)
    val uncSkewed = cell("UNC", Hot)
    assert(uncSkewed.p50Micros <= coorSkewed.p50Micros * 1.5,
      s"UNC ${uncSkewed.p50Micros} vs COOR ${coorSkewed.p50Micros}")
  }
}
