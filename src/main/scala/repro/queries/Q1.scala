package repro.queries

import repro.dataflow._
import repro.nexmark._

/** NexMark Q1 (paper §VI): stateless currency-conversion map over bids.
  * No shuffling — source, map and sink are chained with forward edges.
  * Only the sources carry checkpointable state (their input offset).
  */
object Q1 extends QueryDef {
  val name = "Q1"
  val EurRate = 0.908
  def includes: Set[String] = Set("bid")

  private def mapLogic() = new FilterMap({
    case NxBid(a, b, p, ts) => Some(Q1Out(a, b, p * EurRate, ts))
    case _                  => None
  })

  def graph(parallelism: Int): Graph = Graph(
    ops = Seq(
      OperatorSpec("src",  () => new PassThrough, stateful = false, isSource = true,
        serviceMicros = 2000L),
      OperatorSpec("map",  () => mapLogic(),      stateful = false, serviceMicros = 1000L),
      OperatorSpec("sink", () => new MultisetSink, stateful = false, isSink = true,
        serviceMicros = 300L),
    ),
    edges = Seq(
      Edge("src", "map",  ForwardPart),
      Edge("map", "sink", ForwardPart),
    ),
    parallelism = parallelism,
  )

  def input(parallelism: Int, cfg: NexmarkConfig): SourceInput =
    NexmarkGen.input("src", parallelism, cfg.copy(include = includes))

  def sinkDigest(rt: Runtime): Map[Any, Long] = QueryDef.mergeMultisets(rt, "sink")
}
