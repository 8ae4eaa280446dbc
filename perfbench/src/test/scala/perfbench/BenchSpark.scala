package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** One local session for the benchmark's own tests, configured as a run's. */
trait BenchSpark extends AnyFunSuite {
  lazy val spark: SparkSession = BenchSpark.shared
}

object BenchSpark {
  lazy val shared: SparkSession =
    Main.session(math.min(Runtime.getRuntime.availableProcessors(), Main.MaxCores),
      new java.io.File("target", "test-spark-local").getAbsolutePath)
}
