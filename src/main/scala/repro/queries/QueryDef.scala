package repro.queries

import repro.dataflow._
import repro.nexmark.NexmarkConfig

/** A benchmark query: its dataflow graph, its input stream, and how to read
  * the final answer out of the sink digests.
  *
  * `sinkDigest` merges the digests of all sink instances into one
  * canonical value comparable across runs (failure-free vs recovered) and
  * against the Spark reference implementation.
  */
trait QueryDef {
  def name: String
  /** Build the dataflow graph at the given parallelism. */
  def graph(parallelism: Int): Graph
  /** Build the replayable input for a generator configuration. */
  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput
  /** Event classes this query consumes (rate applies to these only). */
  def includes: Set[String]
  /** Canonical merged answer from the sink instances of a finished run. */
  def sinkDigest(rt: Runtime): Map[Any, Long]
}

object QueryDef {
  /** Merge multiset sinks across parallel sink instances. */
  def mergeMultisets(rt: Runtime, sinkOp: String): Map[Any, Long] = {
    val m = scala.collection.mutable.Map.empty[Any, Long]
    rt.allInstances.filter(_.id.op == sinkOp)
      .foreach(_.logic.asInstanceOf[MultisetSink].countInto(m))
    m.toMap
  }

  /** Merge upsert-max sinks (max wins across instances; keys are disjoint
    * under hash routing anyway).
    */
  def mergeUpserts(rt: Runtime, sinkOp: String): Map[Any, Long] = {
    val m = scala.collection.mutable.Map.empty[Any, Long]
    rt.allInstances.filter(_.id.op == sinkOp).foreach { inst =>
      inst.logic.asInstanceOf[UpsertMaxSink].latest.foreach { case (k, v) =>
        m.updateWith(k)(c => Some(math.max(c.getOrElse(Long.MinValue), v)))
      }
    }
    m.toMap
  }
}
