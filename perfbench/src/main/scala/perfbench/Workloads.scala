package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{FedexConfig, Step}
import repro.data.{BenchQuery, DataScale, Frames, Queries}

/** One query of a workload pass, explained exactly or with FEDEX-SAMPLING. */
final case class QuerySpec(num: Int, sampled: Boolean) {
  def label: String = s"q$num.${if (sampled) "sampled" else "exact"}"
}

/** A workload: the frames' sizes and the queries one pass explains, in order. */
final case class Workload(name: String, rows: DataScale, queries: Seq[QuerySpec])

/** A workload instantiated for one seed: the step of each query. */
final case class Instance(seed: Long, scale: DataScale, steps: Seq[(QuerySpec, Step)]) {
  def config(q: QuerySpec): FedexConfig = Workloads.config(q, seed)
}

object Workloads {

  /** FEDEX-SAMPLING's sample size in every sampled query (the paper's 5K). */
  val SampleRows = 5000L

  /** The paper's configuration; the seed drives FEDEX-SAMPLING's draw. */
  def config(q: QuerySpec, seed: Long): FedexConfig =
    FedexConfig(nSets = Seq(5, 10), topKColumns = 5,
      sampleRows = if (q.sampled) Some(SampleRows) else None, seed = seed)

  // Frames a workload does not read are kept tiny: `Queries` builds every
  // query's step, and building Sales counts Products.
  private val Unused = 100L

  // Each run starts its own JVM and should take about a minute on 4 cores,
  // so each workload keeps one query and a pass takes at most about 15 s.
  // Left out for that reason: q6 (21 s a pass), q27 (the FD-mining-heavy
  // group-by; q11 already stresses partitions) and the q1 join (23 s exact
  // and 71 s sampled a pass, even at 20K sales rows): an explain's cost
  // follows its Spark jobs, not its rows.
  val all: Seq[Workload] = Seq(
    // FEDEX-SAMPLING filter: the single-input exceptionality path with
    // sampling and KS, where partition building costs most.
    Workload("filter-sampled",
      DataScale(spotifyRows = Unused, bankRows = 10127, productsRows = Unused, salesRows = Unused),
      Seq(QuerySpec(11, sampled = true))),
    // Exact group-by: the diversity path, where contribution costs most;
    // sampling and KS never run, so a change to exceptionality alone must
    // not move it.
    Workload("groupby",
      DataScale(spotifyRows = 174389, bankRows = Unused, productsRows = Unused, salesRows = Unused),
      Seq(QuerySpec(21, sampled = false))))

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** Generate the workload's frames for `seed` and build its steps. The seed
    * replaces `DataScale.seed`, from which every frame's seed derives.
    */
  def instantiate(spark: SparkSession, w: Workload, seed: Long): Instance = {
    val scale = w.rows.copy(seed = seed)
    val frames = new Frames(spark, scale)
    val queries: Seq[BenchQuery] = Queries.all(frames)
    val steps = w.queries.map(q => q -> queries.find(_.num == q.num).get.step)
    Instance(seed, scale, steps)
  }
}
