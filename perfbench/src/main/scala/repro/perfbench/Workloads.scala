package repro.perfbench

import repro.core.ExpConfig
import repro.dataflow.SimConfig
import repro.queries._

/** One measured cell: a query under one protocol at a fixed rate. */
final case class Cell(label: String, exp: ExpConfig)

/** A benchmark workload: cells that run one after another, or the MST
  * search.
  */
sealed trait Workload {
  def name: String
  def runner(seed: Long): Runner
}

final case class CellWorkload(name: String, cells: Long => Seq[Cell]) extends Workload {
  def runner(seed: Long): Runner = new CellRunner(this, seed)
}

/** `Mst.find` takes no seed: this workload's input is the same for every seed. */
case object MstWorkload extends Workload {
  val name = "mst-w10"
  val workers = 10
  val protocol = "UNC"
  def queries: Seq[QueryDef] = Seq(Q1, Q3, Q8(), Q12())
  def runner(seed: Long): Runner = new MstRunner
}

/** The benchmark's workloads. Rates are fixed here, never searched, so every
  * commit simulates the same input for a seed. They are 80 % of the MSTs the
  * simulator found at 10 workers (78 % for the cyclic query at 5 workers), as
  * in the paper's Tables II-IV; Q3 at 50 workers runs at 8 000 ev/s. Every window is shorter than the paper's 60 s
  * so that one pass over a workload's cells takes a few wall seconds; the
  * failure keeps its relative place in the window, and the input ends early
  * enough for every cell to recover and drain before the run ends.
  */
object Workloads {

  /** MSTs (ev/s) found at 10 workers for Q1, Q3, Q8, Q12 and at 5 workers
    * for the cyclic query.
    */
  val MstQ1 = 5807.0
  val MstQ3 = 2560.0
  val MstQ8 = 2362.0
  val MstQ12 = 3673.0
  val MstReach5 = 978.0

  /** A schedule of `windowS` measured seconds after `warmupS`, failing
    * `failS` seconds into the window; the input stops `drainS` seconds
    * before the end.
    */
  private def schedule(warmupS: Double, windowS: Double, failS: Double,
      drainS: Double): (SimConfig, Long) = {
    def us(s: Double) = math.round(s * 1e6)
    val sim = SimConfig(warmupMicros = us(warmupS), runMicros = us(windowS),
      failAtMicros = Some(us(failS)))
    (sim, sim.endMicros - us(drainS))
  }

  private def cell(q: QueryDef, proto: String, workers: Int, rate: Double,
      sched: (SimConfig, Long), seed: Long): Cell =
    Cell(s"${q.name}/$proto",
      ExpConfig(q, proto, workers, rate, sim = sched._1,
        inputHorizonMicros = Some(sched._2), seed = seed))

  /** Every NexMark query and protocol path once, Table II/III style. */
  val nexmarkW10 = CellWorkload("nexmark-w10", { seed =>
    val s = schedule(warmupS = 5, windowS = 20, failS = 6, drainS = 5)
    Seq(
      cell(Q1, "CIC", 10, 0.8 * MstQ1, s, seed),
      cell(Q3, "UNC", 10, 0.8 * MstQ3, s, seed),
      cell(Q8(), "COOR", 10, 0.8 * MstQ8, s, seed),
      cell(Q12(), "UNC", 10, 0.8 * MstQ12, s, seed),
    )
  })

  /** Q3 at 50 workers with a late failure: cheap logic, wide CIC vectors and
    * thousands of checkpoints for recovery planning.
    */
  val q3W50LateFail = CellWorkload("q3-w50-latefail", { seed =>
    val s = schedule(warmupS = 5, windowS = 16, failS = 12.8, drainS = 2.5)
    Seq(
      cell(Q3, "UNC", 50, 8000.0, s, seed),
      cell(Q3, "CIC", 50, 8000.0, s, seed),
    )
  })

  /** The cyclic reachability query (Table IV setting). */
  val reachW5 = CellWorkload("reach-w5", { seed =>
    val q = Reachability(ReachConfig(nNodes = 500_000L, ratePerSec = 0,
      durationMicros = 0, seed = seed))
    val s = schedule(warmupS = 5, windowS = 30, failS = 24, drainS = 10)
    Seq(
      cell(q, "UNC", 5, 0.78 * MstReach5, s, seed),
      cell(q, "CIC", 5, 0.78 * MstReach5, s, seed),
    )
  })

  val all: Seq[Workload] = Seq(nexmarkW10, q3W50LateFail, reachW5, MstWorkload)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
